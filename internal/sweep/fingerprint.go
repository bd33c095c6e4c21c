package sweep

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"unsafe"
)

// fingerprintVersion salts every fingerprint; bump it to invalidate
// all cached results when the encoding changes incompatibly.
const fingerprintVersion = "sweep/v2"

// maxFingerprintDepth bounds the encoding's nesting, so a cyclic value
// panics as unencodable instead of overflowing the stack.
const maxFingerprintDepth = 64

// Fingerprint canonically encodes the given parts into cache-key
// material: the version salt, then each part after a space in a
// compact, self-delimiting form built by its type's encoder.
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
//
// Each type is compiled once into an encoder that reads the value in
// place: a struct's fields at their offsets, a slice's elements
// through its header, with no reflect.Value per field. The package's
// use of unsafe stays in this file, and only reads through the
// pointers it forms.
func Fingerprint(parts ...any) string {
	buf := fingerprintBufs.Get().(*[]byte)
	defer fingerprintBufs.Put(buf)
	b := append((*buf)[:0], fingerprintVersion...)
	for _, p := range parts {
		b = append(b, ' ')
		t := reflect.TypeOf(p)
		switch {
		case t == nil:
			b = append(b, 'n')
		case t.Kind() == reflect.Pointer:
			if q := (*eface)(unsafe.Pointer(&p)).data; q != nil {
				b = encode(b, codecOf(t.Elem()).prog, q, 0)
			} else {
				b = append(b, 'n')
			}
		default:
			b = appendBoxed(b, p, 0)
		}
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

// codec is one type's compiled encoder: a program of ops that reads
// the value in place. A struct's program holds, in declaration order,
// the offset and op of every exported field, with by-value struct
// fields inlined and adjacent punctuation merged; a pointer, slice,
// array, map or interface op names its element's codec.
type codec struct {
	prog []op
	// indirect reports that an interface holding this type stores a
	// pointer to the value rather than the value itself.
	indirect bool
}

// op encodes one value, off bytes into the value its program encodes.
// rel is its nesting below the program's root, for the depth bound.
type op struct {
	kind opKind
	rel  int
	off  uintptr
	lit  string       // opLit: the bytes; opBad: the panic message
	elem *codec       // opPointer, opSlice, opArray, opMap: the element
	size uintptr      // opSlice, opArray: the element's size
	n    int          // opArray: the length
	key  *codec       // opMap: the key
	t    reflect.Type // opMap, opInterface: the field's type
}

type opKind uint8

const (
	opLit opKind = iota
	opBool
	opInt
	opInt8
	opInt16
	opInt32
	opInt64
	opUint
	opUint8
	opUint16
	opUint32
	opUint64
	opUintptr
	opFloat32
	opFloat64
	opString
	opPointer
	opSlice
	opArray
	opMap
	opInterface
	opBad
)

// eface is the layout of an empty interface: its dynamic type, then
// a word that holds the value or points to it.
type eface struct{ typ, data unsafe.Pointer }

// sliceHeader is the layout of a slice.
type sliceHeader struct {
	data     unsafe.Pointer
	len, cap int
}

// codecs caches one complete codec per type. compileMu serializes
// compiles, and a compile stores the codecs it built only once all of
// them are finished, so a reader never sees a half-built one.
var (
	codecs    sync.Map // reflect.Type → *codec
	compileMu sync.Mutex
)

// codecOf returns t's codec, compiling t and every type it reaches on
// first use.
func codecOf(t reflect.Type) *codec {
	if c, ok := codecs.Load(t); ok {
		return c.(*codec)
	}
	compileMu.Lock()
	defer compileMu.Unlock()
	building := map[reflect.Type]*codec{}
	c := compile(t, building)
	for t, c := range building {
		codecs.Store(t, c)
	}
	return c
}

// compile returns t's codec from the cache or from this compile's
// building set, or builds it. A type enters building before its
// program is made, so a recursive type's program refers to its own
// codec, whose program is set by the time anything runs it. Only a
// pointer, slice, map or interface can close such a cycle, and those
// ops refer to their element's codec instead of inlining it.
func compile(t reflect.Type, building map[reflect.Type]*codec) *codec {
	if c, ok := codecs.Load(t); ok {
		return c.(*codec)
	}
	if c, ok := building[t]; ok {
		return c
	}
	c := &codec{indirect: ifaceIndirect(t)}
	building[t] = c
	c.prog = appendOps(nil, t, 0, 0, building)
	return c
}

// ifaceIndirect reports whether an interface holding a t points to the
// value. A zero value tells the two layouts apart: a pointer to a
// value is never nil, while a pointer-shaped zero value is.
func ifaceIndirect(t reflect.Type) bool {
	z := reflect.Zero(t).Interface()
	return (*eface)(unsafe.Pointer(&z)).data != nil
}

// scalarOps maps each scalar kind to its op.
var scalarOps = map[reflect.Kind]opKind{
	reflect.Bool: opBool, reflect.String: opString,
	reflect.Int: opInt, reflect.Int8: opInt8, reflect.Int16: opInt16, reflect.Int32: opInt32, reflect.Int64: opInt64,
	reflect.Uint: opUint, reflect.Uint8: opUint8, reflect.Uint16: opUint16, reflect.Uint32: opUint32, reflect.Uint64: opUint64,
	reflect.Uintptr: opUintptr, reflect.Float32: opFloat32, reflect.Float64: opFloat64,
}

// appendOps appends the ops that encode a t at offset off and nesting
// rel.
func appendOps(prog []op, t reflect.Type, off uintptr, rel int, building map[reflect.Type]*codec) []op {
	o := op{rel: rel, off: off, t: t}
	if k, ok := scalarOps[t.Kind()]; ok {
		o.kind = k
		return append(prog, o)
	}
	switch t.Kind() {
	case reflect.Struct:
		prog = appendLit(prog, "{", rel)
		for i := range t.NumField() {
			if f := t.Field(i); f.IsExported() {
				prog = appendOps(prog, f.Type, off+f.Offset, rel+1, building)
			}
		}
		return appendLit(prog, "}", rel)
	case reflect.Pointer:
		o.kind, o.elem = opPointer, compile(t.Elem(), building)
	case reflect.Slice:
		o.kind, o.elem, o.size = opSlice, compile(t.Elem(), building), t.Elem().Size()
	case reflect.Array:
		o.kind, o.elem, o.size, o.n = opArray, compile(t.Elem(), building), t.Elem().Size(), t.Len()
	case reflect.Map:
		o.kind, o.key, o.elem = opMap, compile(t.Key(), building), compile(t.Elem(), building)
	case reflect.Interface:
		o.kind = opInterface
	default:
		o.kind, o.lit = opBad, fmt.Sprintf("sweep: unencodable fingerprint part of type %s", t)
	}
	return append(prog, o)
}

// appendLit appends punctuation, merged into a preceding literal. A
// merged literal keeps the deepest nesting it opens, which is the
// depth check the bytes after it need.
func appendLit(prog []op, s string, rel int) []op {
	if n := len(prog); n > 0 && prog[n-1].kind == opLit {
		prog[n-1].lit += s
		if s == "{" {
			prog[n-1].rel = max(prog[n-1].rel, rel)
		}
		return prog
	}
	return append(prog, op{kind: opLit, rel: rel, lit: s})
}

// encode runs prog over the value at p, which sits depth levels below
// its part.
func encode(b []byte, prog []op, p unsafe.Pointer, depth int) []byte {
	for i := range prog {
		o := &prog[i]
		d := depth + o.rel
		if d > maxFingerprintDepth {
			panic(fmt.Sprintf("sweep: unencodable fingerprint part: nesting deeper than %d (cyclic value?)", maxFingerprintDepth))
		}
		q := unsafe.Add(p, o.off)
		switch o.kind {
		case opLit:
			b = append(b, o.lit...)
		case opBool:
			if *(*bool)(q) {
				b = append(b, 't')
			} else {
				b = append(b, 'f')
			}
		case opInt:
			b = appendInt(b, int64(*(*int)(q)))
		case opInt8:
			b = appendInt(b, int64(*(*int8)(q)))
		case opInt16:
			b = appendInt(b, int64(*(*int16)(q)))
		case opInt32:
			b = appendInt(b, int64(*(*int32)(q)))
		case opInt64:
			b = appendInt(b, *(*int64)(q))
		case opUint:
			b = appendUint(b, uint64(*(*uint)(q)))
		case opUint8:
			b = appendUint(b, uint64(*(*uint8)(q)))
		case opUint16:
			b = appendUint(b, uint64(*(*uint16)(q)))
		case opUint32:
			b = appendUint(b, uint64(*(*uint32)(q)))
		case opUint64:
			b = appendUint(b, *(*uint64)(q))
		case opUintptr:
			b = appendUint(b, uint64(*(*uintptr)(q)))
		case opFloat32:
			b = append(strconv.AppendFloat(b, float64(*(*float32)(q)), 'g', -1, 32), ';')
		case opFloat64:
			b = append(strconv.AppendFloat(b, *(*float64)(q), 'g', -1, 64), ';')
		case opString:
			b = appendQuote(b, *(*string)(q))
		case opPointer:
			if e := *(*unsafe.Pointer)(q); e != nil {
				b = encode(append(b, '*'), o.elem.prog, e, d+1)
			} else {
				b = append(b, 'n')
			}
		case opSlice:
			if s := (*sliceHeader)(q); s.data != nil {
				b = appendSeq(b, o, s.data, s.len, d)
			} else {
				b = append(b, 'n')
			}
		case opArray:
			b = appendSeq(b, o, q, o.n, d)
		case opMap:
			b = appendMap(b, o, q, d)
		case opInterface:
			if v := reflect.NewAt(o.t, q).Elem().Interface(); v != nil {
				b = appendQuote(b, reflect.TypeOf(v).String())
				b = appendBoxed(b, v, d+1)
			} else {
				b = append(b, 'n')
			}
		case opBad:
			panic(o.lit)
		}
	}
	return b
}

// appendInt and appendUint write a number and its ';', the single
// digits most config fields hold without a strconv call.
func appendInt(b []byte, v int64) []byte {
	if 0 <= v && v < 10 {
		return append(b, byte('0'+v), ';')
	}
	return append(strconv.AppendInt(b, v, 10), ';')
}

func appendUint(b []byte, v uint64) []byte {
	if v < 10 {
		return append(b, byte('0'+v), ';')
	}
	return append(strconv.AppendUint(b, v, 10), ';')
}

// appendQuote is strconv.AppendQuote with a fast path for printable
// ASCII that needs no escape, which strconv would copy unchanged.
func appendQuote(b []byte, s string) []byte {
	for i := range len(s) {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return strconv.AppendQuote(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendSeq encodes the n elements of a slice or array op from data.
func appendSeq(b []byte, o *op, data unsafe.Pointer, n, depth int) []byte {
	b = append(strconv.AppendInt(append(b, '['), int64(n), 10), ';')
	for i := range n {
		b = encode(b, o.elem.prog, unsafe.Add(data, uintptr(i)*o.size), depth+1)
	}
	return append(b, ']')
}

// appendMap encodes each key-value pair of a map op on its own and
// sorts the pairs bytewise. Every encoding is prefix-free, so that
// orders by key first and is canonical whatever the map's iteration
// order.
func appendMap(b []byte, o *op, p unsafe.Pointer, depth int) []byte {
	if *(*unsafe.Pointer)(p) == nil {
		return append(b, 'n')
	}
	m := reflect.NewAt(o.t, p).Elem()
	pairs := make([][]byte, 0, m.Len())
	// Each pair is copied out into k and v, which the codecs read in
	// place.
	k, v := reflect.New(o.t.Key()), reflect.New(o.t.Elem())
	for it := m.MapRange(); it.Next(); {
		k.Elem().SetIterKey(it)
		v.Elem().SetIterValue(it)
		kv := encode(nil, o.key.prog, k.UnsafePointer(), depth+1)
		pairs = append(pairs, encode(kv, o.elem.prog, v.UnsafePointer(), depth+1))
	}
	slices.SortFunc(pairs, bytes.Compare)
	b = append(strconv.AppendInt(append(b, '<'), int64(len(pairs)), 10), ';')
	for _, kv := range pairs {
		b = append(b, kv...)
	}
	return append(b, '>')
}

// appendBoxed encodes the value an interface holds.
func appendBoxed(b []byte, v any, depth int) []byte {
	c := codecOf(reflect.TypeOf(v))
	word := (*eface)(unsafe.Pointer(&v)).data
	if c.indirect {
		return encode(b, c.prog, word, depth)
	}
	return appendWord(b, c, word, depth)
}

// appendWord encodes a pointer-shaped value held in an interface's
// data word. The word moves to the heap so the codec can read it
// through a pointer; a pointer part never comes here.
func appendWord(b []byte, c *codec, word unsafe.Pointer, depth int) []byte {
	return encode(b, c.prog, unsafe.Pointer(&word), depth)
}
