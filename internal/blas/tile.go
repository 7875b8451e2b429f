package blas

import "tcqr/internal/dense"

// MGSTileMaxCols is the widest tile MGSTile factors with its kernels: the
// CAQR panel's tile width.
const MGSTileMaxCols = 32

// MGSTileWork is the length of the work slice MGSTile needs for an m-row
// tile: the tile in row-major order, 32 floats a row, and one column; 0
// without the kernels, where MGSTile does not touch it.
func MGSTileWork(m int) int {
	if tileKernel == kernelGo {
		return 0
	}
	return m * (MGSTileMaxCols + 1)
}

// MGSTile runs the modified Gram-Schmidt QR of the float32 tile src (m×n,
// m ≥ n) into dst with the tile kernels, as far as they go, and returns
// where the caller's Go loop takes over on dst: steps 0..k−1 are done; of
// step k nothing is done if j == k, and if j > k the norm, the scaling and
// the trail columns before j are. (n, n) means the factorization is
// complete. dst is src itself or a matrix of the same shape that does not
// overlap it; r is n×n and zero, and receives R row by row. Without the
// kernels, or wider than MGSTileMaxCols, MGSTile copies src to dst and
// returns (0, 0).
//
// The tile is copied once into work (MGSTileWork(m) elements) in row-major
// order, so that the dot products of a step are column chains in the lanes
// of a register, one add per row, and no power-of-two leading dimension of a
// view aliases their L1 sets. A step is one pass over the rows (mgsStepF32,
// mgsStepZ): the trail update of the step before, then this step's dot
// products on the updated rows while they are in registers. The pivot
// column travels in a contiguous buffer c: its share of the pending update
// (colUpdate), its norm (mgsNormF32) and its scaling (scaleF32) into dst,
// where each Q column is final once scaled. Every element sees the
// operations of gram.MGS's Go loop (Nrm2, Scal, Gemv Trans, Ger) in their
// order, so the bits are that loop's.
//
// The kernels hand back before anything that loop could make a NaN of: a
// norm or its inverse that is not finite ends the work before step k, a
// trail column whose dot product is not finite before its group of eight —
// the groups of gemvT counted from the trail's first column, so the Go
// loop's Gemv takes them in the blocks it takes on the whole trail. With
// every dot product of a group finite, the inputs of its update are finite
// and the update stores no NaN.
func MGSTile(src, dst, r *dense.M32, work []float32) (k, j int) {
	m, n := src.Rows, src.Cols
	if tileKernel == kernelGo || n == 0 || n > MGSTileMaxCols || m < n {
		if dst != src {
			dst.CopyFrom(src)
		}
		return 0, 0
	}
	const ld = MGSTileMaxCols
	w, c := work[:m*ld], work[m*ld:m*ld+m]
	packRows(src, w)
	copy(c, src.Col(0))
	// The update of the step before, pending until the next row pass: the
	// lanes of bits get qp[i]·nd[j].
	var (
		dots, nd [ld]float32
		mk       [ld]uint32
		bits     uint32
		qp       = c
	)
	for k := 0; k < n; k++ {
		if bits>>k&1 != 0 {
			colUpdate(c, qp, nd[k])
		}
		qk := dst.Col(k)[:m]
		nrm := mgsNormF32(m, &c[0])
		if !finite32(nrm) {
			copy(qk, c)
			return unpackRows(w, dst, qp, &nd, bits, k, k)
		}
		if nrm == 0 { // Go's MGS leaves the column as it is and skips the trail
			copy(qk, c)
		} else {
			inv := 1 / nrm
			if !finite32(inv) {
				copy(qk, c)
				return unpackRows(w, dst, qp, &nd, bits, k, k)
			}
			r.Set(k, k, nrm)
			scaleF32(m, &c[0], inv, &qk[0])
		}
		if k == n-1 {
			break
		}
		// The row pass: the pending update on the lanes after k, step k's dot
		// products, and column k+1 into c.
		trail := bits &^ (1<<(k+1) - 1)
		if tileKernel == kernelZMM {
			z0 := (k + 1) / 16
			mgsStepZ(m, &w[16*z0], &qp[0], &nd[16*z0], &qk[0], &c[0], &dots[16*z0], (n+15)/16-z0, (k+1)%16, trail>>(16*z0))
		} else {
			v0 := (k + 1) / 8
			for l := 8 * v0; l < ld; l++ {
				mk[l] = -(trail >> l & 1)
			}
			mgsStepF32(m, &w[8*v0], &qp[0], &nd[8*v0], &qk[0], &c[0], &dots[8*v0], (n+7)/8-v0, (k+1)%8, &mk[8*v0])
		}
		bits, qp = 0, qk
		if nrm == 0 {
			continue
		}
		end := n
	groups:
		for g := k + 1; g < n; g += 8 {
			for _, d := range dots[g:min(g+8, n)] {
				if !finite32(d) {
					end = g
					break groups
				}
			}
		}
		for jj := k + 1; jj < end; jj++ {
			d := dots[jj]
			r.Set(k, jj, d)
			nd[jj] = -d // Ger's coefficient −1·r_kj
			if d != 0 { // Ger skips a zero coefficient's column
				bits |= 1 << jj
			}
		}
		if end < n {
			return unpackRows(w, dst, qp, &nd, bits, k, end)
		}
	}
	return n, n
}

// finite32 reports whether v is neither infinite nor NaN.
func finite32(v float32) bool { return v-v == 0 }

// packRows copies src into the row-major w, 32 floats a row: eight columns
// at a time by transposeF32x8, and what is left of rows and columns in Go.
func packRows(src *dense.M32, w []float32) {
	const ld = MGSTileMaxCols
	m, n := src.Rows, src.Cols
	rows := m &^ 7
	for j := 0; j < n; j += 8 {
		cols, from := min(8, n-j), 0
		if cols == 8 && rows > 0 {
			transposeF32x8(rows, &src.Data[j*src.Stride], src.Stride, &w[j])
			from = rows
		}
		for jj := j; jj < j+cols; jj++ {
			col := src.Col(jj)
			for i := from; i < m; i++ {
				w[i*ld+jj] = col[i]
			}
		}
	}
}

// unpackRows hands the tile back at (k, j): it applies the pending update
// (qp, nd on the lanes of bits) to the columns after k, the Go loop's
// arithmetic on the kernels' operands, writes those columns from w into dst
// and returns (k, j).
func unpackRows(w []float32, dst *dense.M32, qp []float32, nd *[MGSTileMaxCols]float32, bits uint32, k, j int) (int, int) {
	const ld = MGSTileMaxCols
	for jj := k + 1; jj < dst.Cols; jj++ {
		col := dst.Col(jj)
		for i := range col {
			v := w[i*ld+jj]
			if bits>>jj&1 != 0 {
				v += float32(qp[i] * nd[jj])
			}
			col[i] = v
		}
	}
	return k, j
}

// gemmNNMaxK is the deepest NoTrans/NoTrans product gemmNNF32 runs on the
// kernels: its coefficients for eight columns fit a 2 KB array on the stack.
const gemmNNMaxK = 64

// gemmNNF32 is gemmCols's NoTrans/NoTrans case, the body of a GemmBatch
// problem, eight columns at a time through gemmNN8F32 / gemmNN16F32, which
// keep an 8- or 16-row block of the eight columns in registers across all k
// steps: per element the products α·b_lj · a_il added in ascending l to the
// β-scaled start, as gemmCols's column sweeps add them. gemmCols skips a
// zero coefficient's column, and the kernels add its product. With β = 0
// that changes no bit: the sum starts at +0, and a sum that starts at +0 is
// never −0 (x + y is −0 only when both are), so adding a·0 = ±0 leaves it
// as it is — unless a is infinite or NaN, and then the result is NaN and
// the block goes back to gemmCols. With any other β the start may be −0,
// which +0 would turn into +0, so eight columns holding a zero coefficient
// go to gemmCols whole. The tile tree's products have β = 0 and Q2 blocks
// that are upper triangular. gemmCols also takes the rows the kernel leaves
// — the row tail, and everything from the first block with a NaN result —
// and the n mod 8 columns, on windows whose column update runs the Go loop
// wherever a result is NaN, as it does on the whole matrix.
func gemmNNF32(alpha float32, a, b *dense.M32, beta float32, c *dense.M32, m, n, k int) {
	j0 := 0
	if k <= gemmNNMaxK {
		mode := 2
		switch beta {
		case 0:
			mode = 0
		case 1:
			mode = 1
		}
		var t [8 * gemmNNMaxK]float32
		for ; j0+8 <= n; j0 += 8 {
			zero := false
			for l := 0; l < k; l++ {
				for jj := 0; jj < 8; jj++ {
					v := alpha * b.At(l, j0+jj)
					t[l*8+jj] = v
					zero = zero || v == 0
				}
			}
			done := 0
			if !zero || mode == 0 {
				if tileKernel == kernelZMM {
					done = gemmNN16F32(m, k, &a.Data[0], a.Stride, &t[0], &c.Data[j0*c.Stride], c.Stride, beta, mode)
				} else {
					done = gemmNN8F32(m, k, &a.Data[0], a.Stride, &t[0], &c.Data[j0*c.Stride], c.Stride, beta, mode)
				}
			}
			if done < m {
				aw, bw, cw := window(a, done, 0, m-done, k), window(b, 0, j0, k, 8), window(c, done, j0, m-done, 8)
				gemmCols(NoTrans, NoTrans, alpha, &aw, &bw, beta, &cw, 0, 8, k, m-done)
			}
		}
	}
	if j0 < n {
		gemmCols(NoTrans, NoTrans, alpha, a, b, beta, c, j0, n, k, m)
	}
}
