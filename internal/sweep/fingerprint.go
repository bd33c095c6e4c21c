package sweep

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"sync"
)

// fingerprintVersion salts every fingerprint; bump it to invalidate
// all cached results when the encoding changes incompatibly.
const fingerprintVersion = "sweep/v2"

// maxFingerprintDepth bounds the walk's nesting, so a cyclic value
// panics as unencodable instead of overflowing the stack.
const maxFingerprintDepth = 64

// Fingerprint canonically encodes the given parts into cache-key
// material: the version salt, then each part after a space in a
// compact, self-delimiting form built by one reflection walk.
//
//   - strings are quoted with strconv.Quote; bools are t or f;
//   - numbers end in ';' (floats in shortest 'g' form);
//   - a struct is its exported fields, in declaration order, inside
//     braces (field names are not written);
//   - slices and arrays are [len; elements], maps <len; key value ...>
//     with the pairs sorted by their encoding;
//   - nil (pointer, slice, map, interface or a nil part) is n, and a
//     pointer's value follows a '*' — except that a non-nil pointer
//     part encodes as the value it points to, so a caller can pass a
//     large struct by pointer without boxing a copy and get the same
//     key;
//   - an interface-typed field writes its dynamic type's name (quoted)
//     before the value, so two implementations with equal content
//     never alias.
//
// A part's own type is not written: callers lead with an identity
// part ("gemm", "vit", ...) that fixes what follows. Funcs, channels,
// complex numbers and unsafe pointers panic, as does nesting deeper
// than maxFingerprintDepth.
func Fingerprint(parts ...any) string {
	buf := fingerprintBufs.Get().(*[]byte)
	defer fingerprintBufs.Put(buf)
	b := append((*buf)[:0], fingerprintVersion...)
	for _, p := range parts {
		b = append(b, ' ')
		v := reflect.ValueOf(p)
		if v.Kind() == reflect.Pointer && !v.IsNil() {
			v = v.Elem()
		}
		b = appendValue(b, v, 0)
	}
	*buf = b
	return string(b)
}

// fingerprintBufs recycles Fingerprint's scratch buffers, so a key
// costs one allocation: the string it returns.
var fingerprintBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

func appendValue(b []byte, v reflect.Value, depth int) []byte {
	if depth > maxFingerprintDepth {
		panic(fmt.Sprintf("sweep: unencodable fingerprint part: nesting deeper than %d (cyclic value?)", maxFingerprintDepth))
	}
	switch v.Kind() {
	case reflect.Invalid:
		return append(b, 'n')
	case reflect.Bool:
		if v.Bool() {
			return append(b, 't')
		}
		return append(b, 'f')
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return append(strconv.AppendInt(b, v.Int(), 10), ';')
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return append(strconv.AppendUint(b, v.Uint(), 10), ';')
	case reflect.Float32:
		return append(strconv.AppendFloat(b, v.Float(), 'g', -1, 32), ';')
	case reflect.Float64:
		return append(strconv.AppendFloat(b, v.Float(), 'g', -1, 64), ';')
	case reflect.String:
		return strconv.AppendQuote(b, v.String())
	case reflect.Struct:
		b = append(b, '{')
		for _, i := range fieldsOf(v.Type()) {
			b = appendValue(b, v.Field(i), depth+1)
		}
		return append(b, '}')
	case reflect.Slice:
		if v.IsNil() {
			return append(b, 'n')
		}
		fallthrough
	case reflect.Array:
		b = append(strconv.AppendInt(append(b, '['), int64(v.Len()), 10), ';')
		for i := range v.Len() {
			b = appendValue(b, v.Index(i), depth+1)
		}
		return append(b, ']')
	case reflect.Map:
		if v.IsNil() {
			return append(b, 'n')
		}
		return appendMap(b, v, depth)
	case reflect.Pointer:
		if v.IsNil() {
			return append(b, 'n')
		}
		return appendValue(append(b, '*'), v.Elem(), depth+1)
	case reflect.Interface:
		if v.IsNil() {
			return append(b, 'n')
		}
		e := v.Elem()
		return appendValue(strconv.AppendQuote(b, e.Type().String()), e, depth+1)
	}
	panic(fmt.Sprintf("sweep: unencodable fingerprint part of type %s", v.Type()))
}

// appendMap encodes each key-value pair on its own and sorts the
// pairs bytewise. Every encoding is prefix-free, so that orders by
// key first and is canonical whatever the map's iteration order.
func appendMap(b []byte, v reflect.Value, depth int) []byte {
	pairs := make([][]byte, 0, v.Len())
	for it := v.MapRange(); it.Next(); {
		kv := appendValue(nil, it.Key(), depth+1)
		pairs = append(pairs, appendValue(kv, it.Value(), depth+1))
	}
	slices.SortFunc(pairs, bytes.Compare)
	b = append(strconv.AppendInt(append(b, '<'), int64(len(pairs)), 10), ';')
	for _, kv := range pairs {
		b = append(b, kv...)
	}
	return append(b, '>')
}

// structFields caches, per struct type, the indexes of the fields a
// fingerprint covers, as encoding/json caches its own field lists.
var structFields sync.Map // reflect.Type → []int

// fieldsOf returns the indexes of t's exported fields in declaration
// order.
func fieldsOf(t reflect.Type) []int {
	if idx, ok := structFields.Load(t); ok {
		return idx.([]int)
	}
	var idx []int
	for i := range t.NumField() {
		if t.Field(i).IsExported() {
			idx = append(idx, i)
		}
	}
	structFields.Store(t, idx)
	return idx
}
