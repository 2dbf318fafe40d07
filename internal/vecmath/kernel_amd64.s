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
