package sweep

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"testing"
)

// referenceFingerprint is the reflection walk Fingerprint's compiled
// encoders replaced, kept as the oracle they must match byte for byte:
// it builds a reflect.Value per field and switches on its kind.
func referenceFingerprint(parts ...any) string {
	b := []byte(fingerprintVersion)
	for _, p := range parts {
		b = append(b, ' ')
		v := reflect.ValueOf(p)
		if v.Kind() == reflect.Pointer && !v.IsNil() {
			v = v.Elem()
		}
		b = appendValue(b, v, 0)
	}
	return string(b)
}

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
		return appendMapValue(b, v, depth)
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

func appendMapValue(b []byte, v reflect.Value, depth int) []byte {
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

// fieldsOf returns the indexes of t's exported fields in declaration
// order.
func fieldsOf(t reflect.Type) []int {
	var idx []int
	for i := range t.NumField() {
		if t.Field(i).IsExported() {
			idx = append(idx, i)
		}
	}
	return idx
}

// fuzzLeaf holds one field of every scalar kind, a named one and an
// unexported one.
type fuzzLeaf struct {
	B      bool
	I      int
	I8     int8
	I16    int16
	I32    int32
	I64    int64
	U      uint
	U8     uint8
	U16    uint16
	U32    uint32
	U64    uint64
	UP     uintptr
	F32    float32
	F64    float64
	S      string
	T      fuzzTick
	hidden int
}

type fuzzTick int64

// fuzzA and fuzzB hold equal content under two dynamic types, which
// an interface field must keep apart.
type (
	fuzzA int
	fuzzB int
)

type (
	fuzzStrA string
	fuzzStrB string
)

func (s fuzzStrA) String() string { return string(s) }
func (s fuzzStrB) String() string { return string(s) }

// FuzzEmbed is embedded exported, so it encodes; fuzzEmbed is embedded
// unexported, so it does not.
type FuzzEmbed struct{ E int16 }

type fuzzEmbed struct{ H int }

// fuzzValue covers every kind Fingerprint accepts, nested: nil and
// empty slices, nil pointers at two levels, arrays (one of length 0),
// maps with struct and pointer values, interface fields, a recursive
// pointer, and unexported and embedded fields.
type fuzzValue struct {
	FuzzEmbed
	fuzzEmbed
	Leaf   fuzzLeaf
	P      *fuzzLeaf
	PP     **int
	Leaves []fuzzLeaf
	Strs   []string
	Arr    [3]int16
	None   [0]uint8
	M      map[string]fuzzLeaf
	MP     map[int32]*int
	I, J   any
	Str    fmt.Stringer
	Next   *fuzzValue
	hidden string
}

// fuzzBytes hands out a fuzz input a few bytes at a time, and zeros
// once it runs dry.
type fuzzBytes []byte

func (r *fuzzBytes) next() byte {
	if len(*r) == 0 {
		return 0
	}
	c := (*r)[0]
	*r = (*r)[1:]
	return c
}

func (r *fuzzBytes) u64() uint64 {
	var w [8]byte
	for i := range w {
		w[i] = r.next()
	}
	return binary.LittleEndian.Uint64(w[:])
}

func (r *fuzzBytes) str() string {
	s := make([]byte, r.next()%24)
	for i := range s {
		s[i] = r.next()
	}
	return string(s)
}

// fill sets every settable part of v from r; depth bounds the pointer
// and container chains it grows.
func (r *fuzzBytes) fill(v reflect.Value, depth int) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(r.next()&1 == 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(r.u64()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(r.u64())
	case reflect.Float32, reflect.Float64:
		v.SetFloat(math.Float64frombits(r.u64()))
	case reflect.String:
		v.SetString(r.str())
	case reflect.Struct:
		for i := range v.NumField() {
			if f := v.Field(i); f.CanSet() {
				r.fill(f, depth)
			}
		}
	case reflect.Array:
		for i := range v.Len() {
			r.fill(v.Index(i), depth)
		}
	case reflect.Pointer:
		if c := r.next(); c%3 != 0 && depth < 3 {
			v.Set(reflect.New(v.Type().Elem()))
			r.fill(v.Elem(), depth+1)
		}
	case reflect.Slice:
		switch c := r.next() % 5; {
		case c == 1:
			v.Set(reflect.MakeSlice(v.Type(), 0, 0))
		case c > 1 && depth < 3:
			v.Set(reflect.MakeSlice(v.Type(), int(c-1), int(c-1)))
			for i := range v.Len() {
				r.fill(v.Index(i), depth+1)
			}
		}
	case reflect.Map:
		if c := r.next() % 5; c > 0 && depth < 3 {
			v.Set(reflect.MakeMap(v.Type()))
			for range c - 1 {
				k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
				r.fill(k, depth+1)
				r.fill(e, depth+1)
				v.SetMapIndex(k, e)
			}
		}
	case reflect.Interface:
		if d := r.dynamic(v.Type(), depth); d.IsValid() {
			v.Set(d)
		}
	}
}

// Dynamic types the fuzz decoder stores in interface fields: any
// takes one of dynamicAny (fuzzA and fuzzB with equal content must
// not alias), fmt.Stringer one of dynamicStringer. A nil entry leaves
// the field nil.
var (
	dynamicAny = []reflect.Type{nil, reflect.TypeFor[fuzzA](), reflect.TypeFor[fuzzB](), reflect.TypeFor[*int](),
		reflect.TypeFor[[]byte](), reflect.TypeFor[fuzzLeaf](), reflect.TypeFor[map[string]fuzzLeaf](), reflect.TypeFor[struct{ P *fuzzLeaf }]()}
	dynamicStringer = []reflect.Type{nil, reflect.TypeFor[fuzzStrA](), reflect.TypeFor[fuzzStrB]()}
)

// dynamic picks and fills a value for an interface field of type t,
// or returns the invalid Value for nil.
func (r *fuzzBytes) dynamic(t reflect.Type, depth int) reflect.Value {
	types := dynamicAny
	if t.NumMethod() > 0 {
		types = dynamicStringer
	}
	dt := types[int(r.next())%len(types)]
	if dt == nil {
		return reflect.Value{}
	}
	d := reflect.New(dt).Elem()
	r.fill(d, depth+1)
	return d
}

// decodeFuzzValue builds a fuzzValue from data.
func decodeFuzzValue(data []byte) fuzzValue {
	r := fuzzBytes(data)
	var v fuzzValue
	r.fill(reflect.ValueOf(&v).Elem(), 0)
	v.fuzzEmbed.H = int(r.next())
	v.Leaf.hidden = int(r.next())
	v.hidden = r.str()
	return v
}

// fingerprintOrPanic returns a fingerprint function's result or the
// value it panicked with.
func fingerprintOrPanic(f func(...any) string, parts ...any) (s string, panicked any) {
	defer func() { panicked = recover() }()
	return f(parts...), nil
}

func FuzzFingerprintMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{2, 7, 0xff}, 200))
	f.Add(bytes.Repeat([]byte{4, 1, 2, 3, 5, 6, 7}, 120))
	// A run of one byte fills every string with it: quotes, escapes,
	// control bytes, DEL and invalid UTF-8 each need quoting.
	for _, c := range []byte{'\\', '"', '\n', 0x7f, 0xe9, 'a'} {
		f.Add(bytes.Repeat([]byte{c}, 2048))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v := decodeFuzzValue(data)
		parts := []any{"fuzz", v, &v, v.Leaf, v.Leaves, v.M, v.MP, v.I, v.Str, v.Arr, nil, (*fuzzValue)(nil)}
		got, gotPanic := fingerprintOrPanic(Fingerprint, parts...)
		want, wantPanic := fingerprintOrPanic(referenceFingerprint, parts...)
		if got != want || gotPanic != wantPanic {
			t.Fatalf("encoder and reference differ:\n got %q (panic %v)\nwant %q (panic %v)", got, gotPanic, want, wantPanic)
		}
	})
}

// TestFingerprintMatchesReferenceOnEdges compares the encoder with the
// reference on values the fuzz decoder does not build: chains on both
// sides of the depth bound, strings that need escaping, and parts of
// every kind passed directly.
func TestFingerprintMatchesReferenceOnEdges(t *testing.T) {
	type node struct{ Next *node }
	chain := func(n int) *node {
		var head *node
		for range n {
			head = &node{Next: head}
		}
		return head
	}
	// A chain whose last link points to a struct holding only an empty
	// struct: at the depth bound the empty struct is the one value
	// past it.
	type tail struct{ E struct{} }
	type tailed struct {
		Next *tailed
		Tail *tail
	}
	tailChain := func(n int) *tailed {
		head := &tailed{Tail: &tail{}}
		for range n - 1 {
			head = &tailed{Next: head}
		}
		return head
	}
	five := 5
	cases := map[string][]any{
		"nested any": {[]any{[]any{fuzzA(1), fuzzB(1)}, map[string]any{"k": &five}}},
		"scalars":    {true, int8(-3), uint16(7), uintptr(9), float32(0.1), math.NaN(), math.Inf(-1), fuzzTick(-1)},
		"strings":    {"plain", `a"b\c`, "tab\tnl\n", "\x7f\xe9", "é∑"},
		"direct":     {map[int]int{1: 2}, struct{ P *int }{&five}, [1]*int{&five}, &five},
		"empty":      {struct{}{}, [0]int{}, []int{}, map[string]int{}, ""},
	}
	for n := 30; n <= 34; n++ {
		cases[fmt.Sprintf("chain %d", n)] = []any{chain(n)}
		cases[fmt.Sprintf("tail chain %d", n)] = []any{tailChain(n)}
	}
	for name, parts := range cases {
		got, gotPanic := fingerprintOrPanic(Fingerprint, parts...)
		want, wantPanic := fingerprintOrPanic(referenceFingerprint, parts...)
		if got != want || gotPanic != wantPanic {
			t.Errorf("%s: got %q (panic %v), want %q (panic %v)", name, got, gotPanic, want, wantPanic)
		}
	}
}

// TestFingerprintConcurrentFirstUse has eight goroutines make the
// first encode of a recursive type at once, from an empty codec cache:
// each must see a complete codec (run it under -race).
func TestFingerprintConcurrentFirstUse(t *testing.T) {
	type raceNode struct {
		Next  *raceNode
		Kids  []raceNode
		ByKey map[string]*raceNode
		Val   any
		N     int
	}
	v := &raceNode{
		N:     1,
		Next:  &raceNode{N: 2, Next: &raceNode{N: 3}},
		Kids:  []raceNode{{N: 4, Val: fuzzA(4)}},
		ByKey: map[string]*raceNode{"a": {N: 5}},
		Val:   raceNode{N: 6, Val: &raceNode{N: 7}},
	}
	want := referenceFingerprint("race", v)
	codecs.Clear()
	got := make([]string, 8)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i] = Fingerprint("race", v)
		}()
	}
	close(start)
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("goroutine %d: got %q, want %q", i, g, want)
		}
	}
}
