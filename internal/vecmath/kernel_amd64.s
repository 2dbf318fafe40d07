//go:build amd64

#include "textflag.h"

// func sqL2AVX(a, b []float64) float64
//
// Squared L2 distance over len(a) elements. 16 float64 per iteration into
// four independent YMM accumulators (breaking the FMA latency chain), then
// a fixed-order reduction: y0+y1, y2+y3, their sum, upper lane folded onto
// lower, the two remaining doubles added low-to-high, and finally a scalar
// FMA tail for len%16 elements. The order never varies, so identical inputs
// give identical bits on every call.
TEXT ·sqL2AVX(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ CX, AX
	SHRQ $4, AX
	JZ   sqreduce

sqloop:
	VMOVUPD (SI), Y4
	VMOVUPD 32(SI), Y5
	VMOVUPD 64(SI), Y6
	VMOVUPD 96(SI), Y7
	VSUBPD (DI), Y4, Y4
	VSUBPD 32(DI), Y5, Y5
	VSUBPD 64(DI), Y6, Y6
	VSUBPD 96(DI), Y7, Y7
	VFMADD231PD Y4, Y4, Y0
	VFMADD231PD Y5, Y5, Y1
	VFMADD231PD Y6, Y6, Y2
	VFMADD231PD Y7, Y7, Y3
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ AX
	JNZ  sqloop

sqreduce:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VSHUFPD $1, X0, X0, X1
	VADDSD X1, X0, X0
	ANDQ $15, CX
	JZ   sqdone

sqtail:
	VMOVSD (SI), X2
	VSUBSD (DI), X2, X2
	VFMADD231SD X2, X2, X0
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  sqtail

sqdone:
	VZEROUPPER
	VMOVSD X0, ret+48(FP)
	RET

// func dotAVX(a, b []float64) float64
//
// Inner product with the same accumulator shape and reduction order as
// sqL2AVX.
TEXT ·dotAVX(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ CX, AX
	SHRQ $4, AX
	JZ   dotreduce

dotloop:
	VMOVUPD (SI), Y4
	VMOVUPD 32(SI), Y5
	VMOVUPD 64(SI), Y6
	VMOVUPD 96(SI), Y7
	VFMADD231PD (DI), Y4, Y0
	VFMADD231PD 32(DI), Y5, Y1
	VFMADD231PD 64(DI), Y6, Y2
	VFMADD231PD 96(DI), Y7, Y3
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ AX
	JNZ  dotloop

dotreduce:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VSHUFPD $1, X0, X0, X1
	VADDSD X1, X0, X0
	ANDQ $15, CX
	JZ   dotdone

dottail:
	VMOVSD (SI), X2
	VFMADD231SD (DI), X2, X0
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  dottail

dotdone:
	VZEROUPPER
	VMOVSD X0, ret+48(FP)
	RET

// func sqL2BatchAVX(q, data, dst []float64)
//
// One-to-many squared L2: dst[r] = squared distance from q to the r-th
// len(q)-sized row of data, for len(dst) contiguous rows. The per-row
// computation is instruction-for-instruction the sqL2AVX body (same
// accumulator shape, same reduction order, same scalar tail), so each entry
// is bitwise identical to a scalar call; keeping the row loop in assembly
// removes the per-row call overhead of the hot FPF and table sweeps.
TEXT ·sqL2BatchAVX(SB), NOSPLIT, $0-72
	MOVQ q_base+0(FP), R8
	MOVQ q_len+8(FP), CX
	MOVQ data_base+24(FP), DI
	MOVQ dst_base+48(FP), DX
	MOVQ dst_len+56(FP), R9
	TESTQ R9, R9
	JZ   batchdone
	MOVQ CX, R10
	SHRQ $4, R10    // blocks of 16 per row
	MOVQ CX, R11
	ANDQ $15, R11   // tail elements per row

batchrow:
	MOVQ R8, SI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ R10, AX
	TESTQ AX, AX
	JZ   batchreduce

batchloop:
	VMOVUPD (SI), Y4
	VMOVUPD 32(SI), Y5
	VMOVUPD 64(SI), Y6
	VMOVUPD 96(SI), Y7
	VSUBPD (DI), Y4, Y4
	VSUBPD 32(DI), Y5, Y5
	VSUBPD 64(DI), Y6, Y6
	VSUBPD 96(DI), Y7, Y7
	VFMADD231PD Y4, Y4, Y0
	VFMADD231PD Y5, Y5, Y1
	VFMADD231PD Y6, Y6, Y2
	VFMADD231PD Y7, Y7, Y3
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ AX
	JNZ  batchloop

batchreduce:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VSHUFPD $1, X0, X0, X1
	VADDSD X1, X0, X0
	MOVQ R11, BX
	TESTQ BX, BX
	JZ   batchstore

batchtail:
	VMOVSD (SI), X2
	VSUBSD (DI), X2, X2
	VFMADD231SD X2, X2, X0
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ BX
	JNZ  batchtail

batchstore:
	VMOVSD X0, (DX)
	ADDQ $8, DX
	DECQ R9
	JNZ  batchrow

batchdone:
	VZEROUPPER
	RET

// func sqCodeDistBatchAVX(q, data []uint8, dst []int64)
//
// One-to-many squared code distance over the quantized plane: dst[r] = sum
// of squared byte differences between q and the r-th len(q)-sized code row
// of data. Per 16-byte block: VPMOVZXBW widens both sides to sixteen i16,
// VPSUBW takes differences (range ±255, exact in i16), VPMADDWD squares and
// pair-sums into eight i32 lanes accumulated with VPADDD. Lane totals stay
// below 2³¹ for len(q) <= maxAVXCodeDim (the Go dispatch guards this); the
// reduction zero-extends lanes to i64 before summing so the final total is
// exact at any row count, and a scalar tail covers len%16 bytes. Integer
// arithmetic throughout — bitwise identical to the generic loop.
TEXT ·sqCodeDistBatchAVX(SB), NOSPLIT, $0-72
	MOVQ q_base+0(FP), R8
	MOVQ q_len+8(FP), CX
	MOVQ data_base+24(FP), DI
	MOVQ dst_base+48(FP), DX
	MOVQ dst_len+56(FP), R9
	TESTQ R9, R9
	JZ   qcdone
	MOVQ CX, R10
	SHRQ $4, R10    // blocks of 16 bytes per row
	MOVQ CX, R11
	ANDQ $15, R11   // tail bytes per row

qcrow:
	MOVQ R8, SI
	VPXOR Y0, Y0, Y0
	MOVQ R10, AX
	TESTQ AX, AX
	JZ   qcreduce

qcloop:
	VPMOVZXBW (SI), Y4
	VPMOVZXBW (DI), Y5
	VPSUBW Y5, Y4, Y4
	VPMADDWD Y4, Y4, Y4
	VPADDD Y4, Y0, Y0
	ADDQ $16, SI
	ADDQ $16, DI
	DECQ AX
	JNZ  qcloop

qcreduce:
	// Widen the eight i32 lanes to i64 (they are non-negative, so
	// zero-extension is exact) and fold: high xmm onto low, then the two
	// remaining quadwords.
	VEXTRACTI128 $1, Y0, X1
	VPMOVZXDQ X0, Y2
	VPMOVZXDQ X1, Y3
	VPADDQ Y3, Y2, Y2
	VEXTRACTI128 $1, Y2, X3
	VPADDQ X3, X2, X2
	VPSRLDQ $8, X2, X3
	VPADDQ X3, X2, X2
	VMOVQ X2, R12
	MOVQ R11, BX
	TESTQ BX, BX
	JZ   qcstore

qctail:
	MOVBLZX (SI), R13
	MOVBLZX (DI), R14
	SUBQ R14, R13
	IMULQ R13, R13
	ADDQ R13, R12
	INCQ SI
	INCQ DI
	DECQ BX
	JNZ  qctail

qcstore:
	MOVQ R12, (DX)
	ADDQ $8, DX
	DECQ R9
	JNZ  qcrow

qcdone:
	VZEROUPPER
	RET

// func axpyAVX(s float64, a, dst []float64)
//
// dst[i] += s*a[i] over len(a) elements with the product rounded before the
// add: VMULPD then VADDPD, never an FMA, so every element is the two IEEE
// operations the scalar Go statement `dst[i] += s * a[i]` performs and the
// result is bitwise that loop's. Elements are independent (no accumulator,
// no reduction), so the 16-wide body, the 4-wide body and the scalar tail
// only differ in how many elements they retire per instruction.
TEXT ·axpyAVX(SB), NOSPLIT, $0-56
	VBROADCASTSD s+0(FP), Y0
	MOVQ a_base+8(FP), SI
	MOVQ a_len+16(FP), CX
	MOVQ dst_base+32(FP), DI
	MOVQ CX, AX
	SHRQ $4, AX
	JZ   axpyquads

axpyloop:
	VMULPD (SI), Y0, Y1
	VMULPD 32(SI), Y0, Y2
	VMULPD 64(SI), Y0, Y3
	VMULPD 96(SI), Y0, Y4
	VADDPD (DI), Y1, Y1
	VADDPD 32(DI), Y2, Y2
	VADDPD 64(DI), Y3, Y3
	VADDPD 96(DI), Y4, Y4
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ AX
	JNZ  axpyloop

axpyquads:
	MOVQ CX, AX
	ANDQ $15, AX
	SHRQ $2, AX
	JZ   axpytail

axpyquad:
	VMULPD (SI), Y0, Y1
	VADDPD (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ AX
	JNZ  axpyquad

axpytail:
	ANDQ $3, CX
	JZ   axpydone

axpyone:
	VMULSD (SI), X0, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  axpyone

axpydone:
	VZEROUPPER
	RET

// func axpyRowsAVX(s, m, dst []float64)
//
// dst += s[0]*row 0 + s[1]*row 1 + ... over the len(s) rows of m, each
// len(dst) long, adding the rows in that order: per element the VMULPD /
// VADDPD pair of axpyAVX once per row, operands in the same positions, so
// the result is bitwise that of len(s) axpyAVX calls. What differs is where
// dst lives meanwhile: a block of columns stays in registers while the rows
// stream past (32 columns in eight accumulators, then at most one block of
// 16, then of 4, then single columns), so dst is loaded and stored once per
// block instead of once per row, and the eight independent add chains hide
// the add latency.
TEXT ·axpyRowsAVX(SB), NOSPLIT, $0-72
	MOVQ s_base+0(FP), R8
	MOVQ s_len+8(FP), R9
	MOVQ m_base+24(FP), R10
	MOVQ dst_base+48(FP), DI
	MOVQ dst_len+56(FP), CX
	TESTQ R9, R9
	JZ   rowsdone
	MOVQ CX, R11
	SHLQ $3, R11    // row stride in bytes
	MOVQ CX, R12
	SHRQ $5, R12    // blocks of 32 columns
	JZ   rows16

rowsblock32:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	MOVQ R10, SI
	MOVQ R8, BX
	MOVQ R9, AX

rowsrow32:
	VBROADCASTSD (BX), Y8
	VMULPD (SI), Y8, Y9
	VMULPD 32(SI), Y8, Y10
	VMULPD 64(SI), Y8, Y11
	VMULPD 96(SI), Y8, Y12
	VADDPD Y0, Y9, Y0
	VADDPD Y1, Y10, Y1
	VADDPD Y2, Y11, Y2
	VADDPD Y3, Y12, Y3
	VMULPD 128(SI), Y8, Y9
	VMULPD 160(SI), Y8, Y10
	VMULPD 192(SI), Y8, Y11
	VMULPD 224(SI), Y8, Y12
	VADDPD Y4, Y9, Y4
	VADDPD Y5, Y10, Y5
	VADDPD Y6, Y11, Y6
	VADDPD Y7, Y12, Y7
	ADDQ R11, SI
	ADDQ $8, BX
	DECQ AX
	JNZ  rowsrow32
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ $256, DI
	ADDQ $256, R10
	DECQ R12
	JNZ  rowsblock32

rows16:
	TESTQ $16, CX
	JZ   rows4
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	MOVQ R10, SI
	MOVQ R8, BX
	MOVQ R9, AX

rowsrow16:
	VBROADCASTSD (BX), Y8
	VMULPD (SI), Y8, Y9
	VMULPD 32(SI), Y8, Y10
	VMULPD 64(SI), Y8, Y11
	VMULPD 96(SI), Y8, Y12
	VADDPD Y0, Y9, Y0
	VADDPD Y1, Y10, Y1
	VADDPD Y2, Y11, Y2
	VADDPD Y3, Y12, Y3
	ADDQ R11, SI
	ADDQ $8, BX
	DECQ AX
	JNZ  rowsrow16
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, R10

rows4:
	MOVQ CX, R12
	ANDQ $15, R12
	SHRQ $2, R12    // blocks of 4 columns
	JZ   rows1

rowsblock4:
	VMOVUPD (DI), Y0
	MOVQ R10, SI
	MOVQ R8, BX
	MOVQ R9, AX

rowsrow4:
	VBROADCASTSD (BX), Y8
	VMULPD (SI), Y8, Y9
	VADDPD Y0, Y9, Y0
	ADDQ R11, SI
	ADDQ $8, BX
	DECQ AX
	JNZ  rowsrow4
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, R10
	DECQ R12
	JNZ  rowsblock4

rows1:
	ANDQ $3, CX
	JZ   rowsdone

rowsblock1:
	VMOVSD (DI), X0
	MOVQ R10, SI
	MOVQ R8, BX
	MOVQ R9, AX

rowsrow1:
	VMOVSD (BX), X8
	VMULSD (SI), X8, X9
	VADDSD X0, X9, X0
	ADDQ R11, SI
	ADDQ $8, BX
	DECQ AX
	JNZ  rowsrow1
	VMOVSD X0, (DI)
	ADDQ $8, DI
	ADDQ $8, R10
	DECQ CX
	JNZ  rowsblock1

rowsdone:
	VZEROUPPER
	RET

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func denseTilesAVX(x, w, b, out []float64, k int)
//
// A dense layer over tiles of four rows: out row r = b + sum_j x row r [j]
// * w row j, for the k-wide rows of x (len(x) a multiple of 4k, k >= 1)
// and the len(b)-wide rows of w and out. Per element it is the axpyRowsAVX
// column with the bias as its starting value: the product rounded (VMULPD,
// never an FMA), then the add, once per j in order, operands in the same
// positions. What the tiles add is reuse: a weight vector, once loaded,
// serves the four rows of a tile, and the loops run column block by column
// block over every tile, so one block of weight columns (k cache lines for
// 8 columns) stays in L1 while all the tiles stream past it. Columns go in
// blocks of 8 (two YMM accumulators per row), then at most one block of 4,
// then single columns.
TEXT ·denseTilesAVX(SB), NOSPLIT, $16-104
	MOVQ x_base+0(FP), R8
	MOVQ x_len+8(FP), AX
	LEAQ (R8)(AX*8), AX
	MOVQ AX, xend-16(SP)
	MOVQ w_base+24(FP), R10
	MOVQ b_base+48(FP), DX
	MOVQ b_len+56(FP), CX
	MOVQ out_base+72(FP), DI
	MOVQ k+96(FP), R13
	SHLQ $3, R13    // x row stride in bytes
	LEAQ (R13)(R13*2), R14
	MOVQ CX, R11
	SHLQ $3, R11    // w and out row stride in bytes
	LEAQ (R11)(R11*2), R15
	MOVQ CX, AX
	SHRQ $3, AX     // blocks of 8 columns
	MOVQ AX, blocks-8(SP)
	JZ   tiles4

tilesblock8:
	MOVQ R8, R9     // the tile's first x row
	MOVQ DI, R12    // the tile's first out row

tilestile8:
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVAPD Y0, Y2
	VMOVAPD Y1, Y3
	VMOVAPD Y0, Y4
	VMOVAPD Y1, Y5
	VMOVAPD Y0, Y6
	VMOVAPD Y1, Y7
	MOVQ R10, SI
	MOVQ R9, BX
	MOVQ k+96(FP), AX

tilesrow8:
	VMOVUPD (SI), Y8
	VMOVUPD 32(SI), Y9
	VBROADCASTSD (BX), Y10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y0, Y11, Y0
	VADDPD Y1, Y12, Y1
	VBROADCASTSD (BX)(R13*1), Y10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y2, Y11, Y2
	VADDPD Y3, Y12, Y3
	VBROADCASTSD (BX)(R13*2), Y10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y4, Y11, Y4
	VADDPD Y5, Y12, Y5
	VBROADCASTSD (BX)(R14*1), Y10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y6, Y11, Y6
	VADDPD Y7, Y12, Y7
	ADDQ R11, SI
	ADDQ $8, BX
	DECQ AX
	JNZ  tilesrow8
	VMOVUPD Y0, (R12)
	VMOVUPD Y1, 32(R12)
	VMOVUPD Y2, (R12)(R11*1)
	VMOVUPD Y3, 32(R12)(R11*1)
	VMOVUPD Y4, (R12)(R11*2)
	VMOVUPD Y5, 32(R12)(R11*2)
	VMOVUPD Y6, (R12)(R15*1)
	VMOVUPD Y7, 32(R12)(R15*1)
	LEAQ (R9)(R13*4), R9
	LEAQ (R12)(R11*4), R12
	CMPQ R9, xend-16(SP)
	JB   tilestile8
	ADDQ $64, DI
	ADDQ $64, DX
	ADDQ $64, R10
	DECQ blocks-8(SP)
	JNZ  tilesblock8

tiles4:
	TESTQ $4, CX
	JZ   tiles1
	MOVQ R8, R9
	MOVQ DI, R12

tilestile4:
	VMOVUPD (DX), Y0
	VMOVAPD Y0, Y1
	VMOVAPD Y0, Y2
	VMOVAPD Y0, Y3
	MOVQ R10, SI
	MOVQ R9, BX
	MOVQ k+96(FP), AX

tilesrow4:
	VMOVUPD (SI), Y8
	VBROADCASTSD (BX), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y0, Y11, Y0
	VBROADCASTSD (BX)(R13*1), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y1, Y11, Y1
	VBROADCASTSD (BX)(R13*2), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y2, Y11, Y2
	VBROADCASTSD (BX)(R14*1), Y10
	VMULPD Y8, Y10, Y11
	VADDPD Y3, Y11, Y3
	ADDQ R11, SI
	ADDQ $8, BX
	DECQ AX
	JNZ  tilesrow4
	VMOVUPD Y0, (R12)
	VMOVUPD Y1, (R12)(R11*1)
	VMOVUPD Y2, (R12)(R11*2)
	VMOVUPD Y3, (R12)(R15*1)
	LEAQ (R9)(R13*4), R9
	LEAQ (R12)(R11*4), R12
	CMPQ R9, xend-16(SP)
	JB   tilestile4
	ADDQ $32, DI
	ADDQ $32, DX
	ADDQ $32, R10

tiles1:
	ANDQ $3, CX
	JZ   tilesdone

tilesblock1:
	MOVQ R8, R9
	MOVQ DI, R12

tilestile1:
	VMOVSD (DX), X0
	VMOVAPD X0, X1
	VMOVAPD X0, X2
	VMOVAPD X0, X3
	MOVQ R10, SI
	MOVQ R9, BX
	MOVQ k+96(FP), AX

tilesrow1:
	VMOVSD (SI), X8
	VMOVSD (BX), X10
	VMULSD X8, X10, X11
	VADDSD X0, X11, X0
	VMOVSD (BX)(R13*1), X10
	VMULSD X8, X10, X11
	VADDSD X1, X11, X1
	VMOVSD (BX)(R13*2), X10
	VMULSD X8, X10, X11
	VADDSD X2, X11, X2
	VMOVSD (BX)(R14*1), X10
	VMULSD X8, X10, X11
	VADDSD X3, X11, X3
	ADDQ R11, SI
	ADDQ $8, BX
	DECQ AX
	JNZ  tilesrow1
	VMOVSD X0, (R12)
	VMOVSD X1, (R12)(R11*1)
	VMOVSD X2, (R12)(R11*2)
	VMOVSD X3, (R12)(R15*1)
	LEAQ (R9)(R13*4), R9
	LEAQ (R12)(R11*4), R12
	CMPQ R9, xend-16(SP)
	JB   tilestile1
	ADDQ $8, DI
	ADDQ $8, DX
	ADDQ $8, R10
	DECQ CX
	JNZ  tilesblock1

tilesdone:
	VZEROUPPER
	RET

// The constants of tanhAVX, four copies each so that any of them can be a
// 256-bit memory operand. Each is the float64 (or bit pattern) that
// math.tanh or the avxfma path of math.Exp (exp_amd64.s) uses, in hex so
// that no literal is left to a second parse.
#define QUAD(off, bits) DATA tanhconst<>+(off)(SB)/8, bits; DATA tanhconst<>+(off+8)(SB)/8, bits; DATA tanhconst<>+(off+16)(SB)/8, bits; DATA tanhconst<>+(off+24)(SB)/8, bits

QUAD(0, $0x7fffffffffffffff)   // |x| mask
QUAD(32, $0x8000000000000000)  // sign bit
QUAD(64, $0x0008000000000000)  // quiet-NaN bit
QUAD(96, $0x3ff0000000000000)  // 1
QUAD(128, $0x4000000000000000) // 2
QUAD(160, $0x3fe4000000000000) // 0.625
QUAD(192, $0x404601e678fc457b) // 0.5*MAXLOG = 44.014845965556525
QUAD(224, $0x3ff71547652b82fe) // LOG2E
QUAD(256, $0x3fe62e42fefa3000) // LN2U
QUAD(288, $0x3d53de6af278ece6) // LN2L
QUAD(320, $0x3fb0000000000000) // 0.0625
QUAD(352, $0x3efa01a01a01a01a) // 1/8!
QUAD(384, $0x3f2a01a01a01a01a) // 1/7!
QUAD(416, $0x3f56c16c16c16c17) // 1/6!
QUAD(448, $0x3f81111111111111) // 1/5!
QUAD(480, $0x3fa5555555555555) // 1/4!
QUAD(512, $0x3fc5555555555555) // 1/3!
QUAD(544, $0x3fe0000000000000) // 1/2!
QUAD(576, $0xbfeedc5baafd6f4b) // tanhP[0]
QUAD(608, $0xc058d26a0e26682d) // tanhP[1]
QUAD(640, $0xc0993ac030580563) // tanhP[2]
QUAD(672, $0x405c33f28a581b86) // tanhQ[0]
QUAD(704, $0x40a176fa0e5535fa) // tanhQ[1]
QUAD(736, $0x40b2ec102442040c) // tanhQ[2]
QUAD(768, $0x00000000000003ff) // exponent bias (int64)
GLOBL tanhconst<>(SB), RODATA|NOPTR, $800

#define TC_ABS tanhconst<>+0(SB)
#define TC_SIGN tanhconst<>+32(SB)
#define TC_QUIET tanhconst<>+64(SB)
#define TC_ONE tanhconst<>+96(SB)
#define TC_TWO tanhconst<>+128(SB)
#define TC_SMALL tanhconst<>+160(SB)
#define TC_BIG tanhconst<>+192(SB)
#define TC_LOG2E tanhconst<>+224(SB)
#define TC_LN2U tanhconst<>+256(SB)
#define TC_LN2L tanhconst<>+288(SB)
#define TC_SIXTEENTH tanhconst<>+320(SB)
#define TC_E8 tanhconst<>+352(SB)
#define TC_E7 tanhconst<>+384(SB)
#define TC_E6 tanhconst<>+416(SB)
#define TC_E5 tanhconst<>+448(SB)
#define TC_E4 tanhconst<>+480(SB)
#define TC_E3 tanhconst<>+512(SB)
#define TC_E2 tanhconst<>+544(SB)
#define TC_P0 tanhconst<>+576(SB)
#define TC_P1 tanhconst<>+608(SB)
#define TC_P2 tanhconst<>+640(SB)
#define TC_Q0 tanhconst<>+672(SB)
#define TC_Q1 tanhconst<>+704(SB)
#define TC_Q2 tanhconst<>+736(SB)
#define TC_BIAS tanhconst<>+768(SB)

// func tanhAVX(x, dst []float64)
//
// dst[i] = math.Tanh(x[i]) for len(x)/4 blocks of four lanes, each lane
// the operation sequence of math.tanh on amd64 with FMA:
//   - |x| >= 0.625: s = Exp(2|x|) as exp_amd64.s's avxfma path computes it
//     (k = round(t*LOG2E); t - k*LN2U - k*LN2L fused; *0.0625; the fused
//     Horner polynomial; three r *= r+2 steps and a fused r*(r+2)+1; times
//     2^k, exact since 2|x| <= 88.03 keeps k in [2, 127]), then
//     1 - 2/(s+1) with the sign of x;
//   - below 0.625: the unfused rational polynomial
//     x + x*s*((P0*s+P1)*s+P2) / (((s+Q0)*s+Q1)*s+Q2), s = x*x;
//   - then blends: |x| > 0.5*MAXLOG gives ±1, ±0 gives x itself, and NaN
//     gives x quieted, as the scalar code's NaN propagation does.
// Both polynomials run on every lane; the blends pick per lane.
TEXT ·tanhAVX(SB), NOSPLIT, $0-48
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ dst_base+24(FP), DI
	SHRQ $2, CX
	JZ   tanhdone

tanhloop:
	VMOVUPD (SI), Y0                 // x
	VANDPD TC_ABS, Y0, Y1            // z = |x|

	// s = Exp(2z), the avxfma path.
	VADDPD Y1, Y1, Y2                // t = 2z
	VMULPD TC_LOG2E, Y2, Y3
	VCVTPD2DQY Y3, X4                // k, rounded to nearest
	VCVTDQ2PD X4, Y3
	VFNMADD231PD TC_LN2U, Y3, Y2     // t -= k*LN2U, fused
	VFNMADD231PD TC_LN2L, Y3, Y2     // t -= k*LN2L, fused
	VMULPD TC_SIXTEENTH, Y2, Y2
	VMOVUPD TC_E8, Y5
	VFMADD213PD TC_E7, Y2, Y5
	VFMADD213PD TC_E6, Y2, Y5
	VFMADD213PD TC_E5, Y2, Y5
	VFMADD213PD TC_E4, Y2, Y5
	VFMADD213PD TC_E3, Y2, Y5
	VFMADD213PD TC_E2, Y2, Y5
	VFMADD213PD TC_ONE, Y2, Y5
	VMULPD Y5, Y2, Y2
	VADDPD TC_TWO, Y2, Y5
	VMULPD Y5, Y2, Y2
	VADDPD TC_TWO, Y2, Y5
	VMULPD Y5, Y2, Y2
	VADDPD TC_TWO, Y2, Y5
	VMULPD Y5, Y2, Y2
	VADDPD TC_TWO, Y2, Y5
	VFMADD213PD TC_ONE, Y5, Y2
	VPMOVSXDQ X4, Y6
	VPADDQ TC_BIAS, Y6, Y6
	VPSLLQ $52, Y6, Y6               // 2^k
	VMULPD Y6, Y2, Y2                // s

	// 1 - 2/(s+1), signed like x.
	VADDPD TC_ONE, Y2, Y2
	VMOVUPD TC_TWO, Y7
	VDIVPD Y2, Y7, Y7
	VMOVUPD TC_ONE, Y8
	VSUBPD Y7, Y8, Y8
	VANDPD TC_SIGN, Y0, Y9           // sign of x
	VXORPD Y9, Y8, Y8

	// The rational polynomial.
	VMULPD Y0, Y0, Y10               // s = x*x
	VMULPD TC_P0, Y10, Y11
	VADDPD TC_P1, Y11, Y11
	VMULPD Y10, Y11, Y11
	VADDPD TC_P2, Y11, Y11
	VADDPD TC_Q0, Y10, Y12
	VMULPD Y10, Y12, Y12
	VADDPD TC_Q1, Y12, Y12
	VMULPD Y10, Y12, Y12
	VADDPD TC_Q2, Y12, Y12
	VMULPD Y10, Y0, Y13              // x*s
	VMULPD Y11, Y13, Y13
	VDIVPD Y12, Y13, Y13
	VADDPD Y13, Y0, Y13              // x + x*s*P/Q

	VCMPPD $0x1d, TC_SMALL, Y1, Y14  // z >= 0.625
	VBLENDVPD Y14, Y8, Y13, Y13
	VCMPPD $0x1e, TC_BIG, Y1, Y14    // z > 0.5*MAXLOG
	VORPD TC_ONE, Y9, Y15            // ±1
	VBLENDVPD Y14, Y15, Y13, Y13
	VXORPD Y15, Y15, Y15
	VCMPPD $0x00, Y15, Y0, Y14       // x == 0
	VBLENDVPD Y14, Y0, Y13, Y13
	VCMPPD $0x03, Y0, Y0, Y14        // x is NaN
	VORPD TC_QUIET, Y0, Y15
	VBLENDVPD Y14, Y15, Y13, Y13
	VMOVUPD Y13, (DI)

	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  tanhloop

tanhdone:
	VZEROUPPER
	RET
