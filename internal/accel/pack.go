package accel

import (
	"encoding/binary"
	"fmt"
)

// Packed matrix layouts. MatrixFlow's "optimized data structure"
// streams operands without strided access: the driver stages matrices
// in panel-packed form so every DMA transfer is contiguous.
//
//   - A (M x K): row panels of Dim rows, each panel k-major —
//     panel p, element [k*Dim+i] = A[p*Dim+i][k].
//   - B (K x N): column panels of Dim columns, each panel k-major —
//     panel q, element [k*Dim+j] = B[k][q*Dim+j].
//   - C (M x N): tile-packed — tile (p,q), element [i*Dim+j] =
//     C[p*Dim+i][q*Dim+j], tiles row-major.
//
// All dimensions must be multiples of Dim; callers pad with zeros.

// ElemBytes is the element size: int32 operands and accumulators, the
// "integer format" of MatrixFlow with the 4-byte footprint the paper's
// Table IV implies (3 matrices x N^2 x 4 B).
const ElemBytes = 4

// CheckDim is the array's tiling rule for a matrix dimension: it must
// be a positive multiple of Dim. The driver enforces it on every job
// and the scenario layer on every declared GEMM size.
func CheckDim(d int) error {
	if d <= 0 || d%Dim != 0 {
		return fmt.Errorf("dimension %d must be a positive multiple of %d", d, Dim)
	}
	return nil
}

func checkDims(dims ...int) {
	for _, d := range dims {
		if err := CheckDim(d); err != nil {
			panic("accel: " + err.Error())
		}
	}
}

// PackedASize returns the byte size of a packed A.
func PackedASize(m, k int) int { checkDims(m, k); return m * k * ElemBytes }

// PackedBSize returns the byte size of a packed B.
func PackedBSize(k, n int) int { checkDims(k, n); return k * n * ElemBytes }

// PackedCSize returns the byte size of a packed C.
func PackedCSize(m, n int) int { checkDims(m, n); return m * n * ElemBytes }

// APanelBytes is the byte size of one A row panel.
func APanelBytes(k int) int { return Dim * k * ElemBytes }

// BPanelBytes is the byte size of one B column panel.
func BPanelBytes(k int) int { return Dim * k * ElemBytes }

// TileCBytes is the byte size of one packed C tile.
const TileCBytes = Dim * Dim * ElemBytes

// PackA converts a row-major M x K matrix into packed form.
func PackA(a []int32, m, k int) []byte {
	checkDims(m, k)
	out := make([]byte, PackedASize(m, k))
	for p := 0; p < m/Dim; p++ {
		base := p * APanelBytes(k)
		for kk := 0; kk < k; kk++ {
			for i := 0; i < Dim; i++ {
				v := a[(p*Dim+i)*k+kk]
				binary.LittleEndian.PutUint32(out[base+(kk*Dim+i)*ElemBytes:], uint32(v))
			}
		}
	}
	return out
}

// PackB converts a row-major K x N matrix into packed form.
func PackB(b []int32, k, n int) []byte {
	checkDims(k, n)
	out := make([]byte, PackedBSize(k, n))
	for q := 0; q < n/Dim; q++ {
		base := q * BPanelBytes(k)
		for kk := 0; kk < k; kk++ {
			for j := 0; j < Dim; j++ {
				v := b[kk*n+q*Dim+j]
				binary.LittleEndian.PutUint32(out[base+(kk*Dim+j)*ElemBytes:], uint32(v))
			}
		}
	}
	return out
}

// UnpackC converts a packed C buffer back to a row-major M x N matrix.
func UnpackC(buf []byte, m, n int) []int32 {
	checkDims(m, n)
	out := make([]int32, m*n)
	tilesN := n / Dim
	for p := 0; p < m/Dim; p++ {
		for q := 0; q < tilesN; q++ {
			base := (p*tilesN + q) * TileCBytes
			for i := 0; i < Dim; i++ {
				for j := 0; j < Dim; j++ {
					v := binary.LittleEndian.Uint32(buf[base+(i*Dim+j)*ElemBytes:])
					out[(p*Dim+i)*n+q*Dim+j] = int32(v)
				}
			}
		}
	}
	return out
}

// decodePanel turns packed panel bytes into int32s.
func decodePanel(buf []byte, k int) []int32 {
	out := make([]int32, k*Dim)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(buf[i*ElemBytes:]))
	}
	return out
}

// encodeTile serializes a Dim x Dim tile result.
func encodeTile(c []int32) []byte {
	out := make([]byte, TileCBytes)
	for i, v := range c {
		binary.LittleEndian.PutUint32(out[i*ElemBytes:], uint32(v))
	}
	return out
}

// MatMulRef is the reference row-major GEMM used by tests and
// examples: c = a x b with a (m x k), b (k x n).
func MatMulRef(a, b []int32, m, k, n int) []int32 {
	c := make([]int32, m*n)
	for i := 0; i < m; i++ {
		for kk := 0; kk < k; kk++ {
			av := a[i*k+kk]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				c[i*n+j] += av * b[kk*n+j]
			}
		}
	}
	return c
}
