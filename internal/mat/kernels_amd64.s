//go:build !purego

#include "textflag.h"

// AVX2 implementations of the fiber primitives in kernels.go and of
// HadamardVec, four float64 lanes to a register, vectorised across the
// column index.
//
// Bit identity with the Go loops rests on three rules:
//   - a product is a VMULPD and a sum is a separate VADDPD, so each lane
//     rounds twice exactly as MULSD then ADDSD does. Never VFMADD*: one
//     fused operation rounds once and changes the low bits of everything
//     downstream;
//   - every output element's additions happen in the Go loop's order (the
//     accumulators of fibersMulAddAVX2 start at +0 and run front to back,
//     those of foldAddAVX2 start at dst, a panel row of outerAddAVX2 takes
//     its fibers in ascending order; axpyAVX2 adds once per element and
//     hadamardAVX2 only multiplies);
//   - operands commute only where IEEE 754 says the result cannot depend on
//     it: x+y and y+x differ in nothing but which payload survives when
//     both are NaN, and the compiler's own operand choice does not pin that
//     either.
//
// Loads and stores are unaligned (Go slices are only 8-byte aligned). The
// functions use no stack and clobber only AX-DX, SI, DI, R8-R13 and Y0-Y12;
// VZEROUPPER before every RET keeps the SSE code the compiler emits from
// paying the AVX transition penalty.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpyAVX2(dst, x []float64, a float64)
//
// dst[i] += a*x[i] for i < len(x): eight lanes a turn, then four, then one.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         x_base+24(FP), SI
	MOVQ         x_len+32(FP), CX
	VBROADCASTSD a+48(FP), Y0
	CMPQ         CX, $8
	JLT          axpy4

axpy8:
	VMULPD  (SI), Y0, Y1
	VMULPD  32(SI), Y0, Y2
	VADDPD  (DI), Y1, Y1
	VADDPD  32(DI), Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     axpy8

axpy4:
	CMPQ    CX, $4
	JLT     axpy1
	VMULPD  (SI), Y0, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX

axpy1:
	TESTQ  CX, CX
	JZ     axpydone
	VMULSD (SI), X0, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    axpy1

axpydone:
	VZEROUPPER
	RET

// func hadamardAVX2(dst, a, b []float64)
//
// dst[i] = a[i]*b[i] for i < len(dst): eight lanes a turn, then four, then
// one. A lane's product is the scalar product, rounded once.
TEXT ·hadamardAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	CMPQ CX, $8
	JLT  had4

had8:
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMULPD  (DX), Y0, Y0
	VMULPD  32(DX), Y1, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DX
	ADDQ    $64, DI
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     had8

had4:
	CMPQ    CX, $4
	JLT     had1
	VMOVUPD (SI), Y0
	VMULPD  (DX), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $4, CX

had1:
	TESTQ  CX, CX
	JZ     haddone
	VMOVSD (SI), X0
	VMULSD (DX), X0, X0
	VMOVSD X0, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DX
	ADDQ   $8, DI
	DECQ   CX
	JMP    had1

haddone:
	VZEROUPPER
	RET

// One fiber's step against a row r0 (and r1) of eight (four) columns: Y10 =
// x[i] in every lane, then acc += Y10*row, the product and the sum rounded
// separately. In outerAddAVX2 the rows are a fiber's weights and acc is the
// panel row; in fibersMulAddAVX2 the rows are the panel row, in registers
// when four fibers share it and straight from memory otherwise, and acc is
// the fiber's running sum.
#define FIBERSTEP8(xi, r0, r1, acc0, acc1) \
	VBROADCASTSD xi, Y10; \
	VMULPD       r0, Y10, Y11; \
	VMULPD       r1, Y10, Y12; \
	VADDPD       Y11, acc0, acc0; \
	VADDPD       Y12, acc1, acc1

#define FIBERSTEP4(xi, r0, acc) \
	VBROADCASTSD xi, Y10; \
	VMULPD       r0, Y10, Y11; \
	VADDPD       Y11, acc, acc

// One row of a one-fiber OuterAdd column block: Y2 = x[i] in every lane,
// then row += Y2*w, and on to the next row. The weights are in Y0 (and Y1).
#define OUTERROW8(xi) \
	VBROADCASTSD xi, Y2; \
	VMULPD       Y0, Y2, Y3; \
	VMULPD       Y1, Y2, Y4; \
	VADDPD       (R13), Y3, Y3; \
	VADDPD       32(R13), Y4, Y4; \
	VMOVUPD      Y3, (R13); \
	VMOVUPD      Y4, 32(R13); \
	ADDQ         R9, R13

#define OUTERROW4(xi) \
	VBROADCASTSD xi, Y2; \
	VMULPD       Y0, Y2, Y3; \
	VADDPD       (R13), Y3, Y3; \
	VMOVUPD      Y3, (R13); \
	ADDQ         R9, R13

// func outerAddAVX2(rows, w, x []float64, count, n, xStride, f int)
//
// rows[i*f+c] += x[q*xStride+i]*w[q*f+c] for q = 0..count-1 in order, i < n
// and c < f&^3. Fibers go four at a time, columns in blocks of eight and
// then four: the four fibers' weights for the block sit in Y0-Y7, and each
// panel row is loaded once, takes the four fibers' products in fiber order
// and is stored once. The remaining one to three fibers go one at a time
// with the block's weights in Y0, Y1 down the fiber; those loops retire
// about as many instructions as the core can issue, so the fiber goes four
// rows to a turn to shed loop overhead. Needs count, n >= 1.
TEXT ·outerAddAVX2(SB), NOSPLIT, $0-104
	MOVQ rows_base+0(FP), DI
	MOVQ w_base+24(FP), R10
	MOVQ x_base+48(FP), SI
	MOVQ count+72(FP), R11
	MOVQ n+80(FP), R12
	MOVQ xStride+88(FP), R8
	MOVQ f+96(FP), R9
	SHLQ $3, R8               // bytes between fibers
	SHLQ $3, R9               // bytes per row, and per fiber's weights

outerfib4:
	CMPQ R11, $4
	JLT  outerfib1
	XORQ BX, BX               // byte offset of the column block

outerfib4col8:
	LEAQ    64(BX), R13
	CMPQ    R13, R9
	JGT     outerfib4col4
	LEAQ    (R10)(BX*1), R13  // fiber 0's weights for the block
	VMOVUPD (R13), Y0
	VMOVUPD 32(R13), Y1
	VMOVUPD (R13)(R9*1), Y2
	VMOVUPD 32(R13)(R9*1), Y3
	VMOVUPD (R13)(R9*2), Y4
	VMOVUPD 32(R13)(R9*2), Y5
	LEAQ    (R13)(R9*2), R13
	VMOVUPD (R13)(R9*1), Y6
	VMOVUPD 32(R13)(R9*1), Y7
	MOVQ    SI, AX            // fibers 0..2 at AX, AX+R8, AX+2*R8
	LEAQ    (SI)(R8*2), DX
	ADDQ    R8, DX            // fiber 3
	LEAQ    (DI)(BX*1), R13
	MOVQ    R12, CX

outerfib4col8row:
	VMOVUPD (R13), Y8
	VMOVUPD 32(R13), Y9
	FIBERSTEP8((AX), Y0, Y1, Y8, Y9)
	FIBERSTEP8((AX)(R8*1), Y2, Y3, Y8, Y9)
	FIBERSTEP8((AX)(R8*2), Y4, Y5, Y8, Y9)
	FIBERSTEP8((DX), Y6, Y7, Y8, Y9)
	VMOVUPD Y8, (R13)
	VMOVUPD Y9, 32(R13)
	ADDQ    $8, AX
	ADDQ    $8, DX
	ADDQ    R9, R13
	DECQ    CX
	JNZ     outerfib4col8row
	ADDQ    $64, BX
	JMP     outerfib4col8

outerfib4col4:
	LEAQ    32(BX), R13
	CMPQ    R13, R9
	JGT     outerfib4next
	LEAQ    (R10)(BX*1), R13
	VMOVUPD (R13), Y0
	VMOVUPD (R13)(R9*1), Y1
	VMOVUPD (R13)(R9*2), Y2
	LEAQ    (R13)(R9*2), R13
	VMOVUPD (R13)(R9*1), Y3
	MOVQ    SI, AX
	LEAQ    (SI)(R8*2), DX
	ADDQ    R8, DX
	LEAQ    (DI)(BX*1), R13
	MOVQ    R12, CX

outerfib4col4row:
	VMOVUPD (R13), Y8
	FIBERSTEP4((AX), Y0, Y8)
	FIBERSTEP4((AX)(R8*1), Y1, Y8)
	FIBERSTEP4((AX)(R8*2), Y2, Y8)
	FIBERSTEP4((DX), Y3, Y8)
	VMOVUPD Y8, (R13)
	ADDQ    $8, AX
	ADDQ    $8, DX
	ADDQ    R9, R13
	DECQ    CX
	JNZ     outerfib4col4row

outerfib4next:
	LEAQ (SI)(R8*4), SI
	LEAQ (R10)(R9*4), R10
	SUBQ $4, R11
	JMP  outerfib4

outerfib1:
	TESTQ R11, R11
	JZ    outerdone
	XORQ  BX, BX

outer8:
	LEAQ    64(BX), R13
	CMPQ    R13, R9
	JGT     outer4
	VMOVUPD (R10)(BX*1), Y0
	VMOVUPD 32(R10)(BX*1), Y1
	LEAQ    (DI)(BX*1), R13
	MOVQ    SI, AX
	MOVQ    R12, CX
	CMPQ    CX, $4
	JLT     outer8row

outer8row4:
	OUTERROW8((AX))
	OUTERROW8(8(AX))
	OUTERROW8(16(AX))
	OUTERROW8(24(AX))
	ADDQ  $32, AX
	SUBQ  $4, CX
	CMPQ  CX, $4
	JGE   outer8row4
	TESTQ CX, CX
	JZ    outer8next

outer8row:
	OUTERROW8((AX))
	ADDQ $8, AX
	DECQ CX
	JNZ  outer8row

outer8next:
	ADDQ $64, BX
	JMP  outer8

outer4:
	LEAQ    32(BX), R13
	CMPQ    R13, R9
	JGT     outerfib1next
	VMOVUPD (R10)(BX*1), Y0
	LEAQ    (DI)(BX*1), R13
	MOVQ    SI, AX
	MOVQ    R12, CX
	CMPQ    CX, $4
	JLT     outer4row

outer4row4:
	OUTERROW4((AX))
	OUTERROW4(8(AX))
	OUTERROW4(16(AX))
	OUTERROW4(24(AX))
	ADDQ  $32, AX
	SUBQ  $4, CX
	CMPQ  CX, $4
	JGE   outer4row4
	TESTQ CX, CX
	JZ    outerfib1next

outer4row:
	OUTERROW4((AX))
	ADDQ $8, AX
	DECQ CX
	JNZ  outer4row

outerfib1next:
	ADDQ R8, SI
	ADDQ R9, R10
	DECQ R11
	JMP  outerfib1

outerdone:
	VZEROUPPER
	RET

// A finished sum joins its row of dst at R13: dst + acc, as the Go loop
// writes it.
#define FIBERSUM8(acc0, acc1) \
	VMOVUPD (R13), Y8; \
	VMOVUPD 32(R13), Y9; \
	VADDPD  acc0, Y8, Y8; \
	VADDPD  acc1, Y9, Y9; \
	VMOVUPD Y8, (R13); \
	VMOVUPD Y9, 32(R13)

#define FIBERSUM4(acc) \
	VMOVUPD (R13), Y8; \
	VADDPD  acc, Y8, Y8; \
	VMOVUPD Y8, (R13)

// func fibersMulAddAVX2(dst, rows, x []float64, nf, n, f int)
//
// dst[k*f+c] += Σ_i x[k*n+i]*rows[i*f+c] for k < nf and c < f&^3, each sum
// accumulated from +0 over i = 0..n-1 and then added to dst. Fibers go four
// at a time (then one at a time), columns in blocks of eight and then four:
// the 4×8 block keeps eight independent add chains in Y0-Y7 and loads each
// row of the panel once for four fibers. Needs nf, n >= 1.
TEXT ·fibersMulAddAVX2(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ rows_base+24(FP), R10
	MOVQ x_base+48(FP), SI
	MOVQ nf+72(FP), R11
	MOVQ n+80(FP), R12
	MOVQ f+88(FP), R9
	SHLQ $3, R9               // bytes per row of rows and of dst
	MOVQ R12, R8
	SHLQ $3, R8               // bytes per fiber

fib4:
	CMPQ R11, $4
	JLT  fib1
	XORQ BX, BX               // byte offset of the column block

fib4col8:
	LEAQ   64(BX), R13
	CMPQ   R13, R9
	JGT    fib4col4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   SI, AX             // fibers 0..2 at AX, AX+R8, AX+2*R8
	LEAQ   (SI)(R8*2), DX
	ADDQ   R8, DX             // fiber 3
	LEAQ   (R10)(BX*1), R13
	MOVQ   R12, CX

fib4col8row:
	VMOVUPD (R13), Y8
	VMOVUPD 32(R13), Y9
	FIBERSTEP8((AX), Y8, Y9, Y0, Y1)
	FIBERSTEP8((AX)(R8*1), Y8, Y9, Y2, Y3)
	FIBERSTEP8((AX)(R8*2), Y8, Y9, Y4, Y5)
	FIBERSTEP8((DX), Y8, Y9, Y6, Y7)
	ADDQ $8, AX
	ADDQ $8, DX
	ADDQ R9, R13
	DECQ CX
	JNZ  fib4col8row
	LEAQ (DI)(BX*1), R13
	FIBERSUM8(Y0, Y1)
	ADDQ R9, R13
	FIBERSUM8(Y2, Y3)
	ADDQ R9, R13
	FIBERSUM8(Y4, Y5)
	ADDQ R9, R13
	FIBERSUM8(Y6, Y7)
	ADDQ $64, BX
	JMP  fib4col8

fib4col4:
	LEAQ   32(BX), R13
	CMPQ   R13, R9
	JGT    fib4next
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, AX
	LEAQ   (SI)(R8*2), DX
	ADDQ   R8, DX
	LEAQ   (R10)(BX*1), R13
	MOVQ   R12, CX

fib4col4row:
	VMOVUPD (R13), Y8
	FIBERSTEP4((AX), Y8, Y0)
	FIBERSTEP4((AX)(R8*1), Y8, Y1)
	FIBERSTEP4((AX)(R8*2), Y8, Y2)
	FIBERSTEP4((DX), Y8, Y3)
	ADDQ $8, AX
	ADDQ $8, DX
	ADDQ R9, R13
	DECQ CX
	JNZ  fib4col4row
	LEAQ (DI)(BX*1), R13
	FIBERSUM4(Y0)
	ADDQ R9, R13
	FIBERSUM4(Y1)
	ADDQ R9, R13
	FIBERSUM4(Y2)
	ADDQ R9, R13
	FIBERSUM4(Y3)

fib4next:
	LEAQ (SI)(R8*4), SI
	LEAQ (DI)(R9*4), DI
	SUBQ $4, R11
	JMP  fib4

fib1:
	TESTQ R11, R11
	JZ    fibdone
	XORQ  BX, BX

fib1col8:
	LEAQ   64(BX), R13
	CMPQ   R13, R9
	JGT    fib1col4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   SI, AX
	LEAQ   (R10)(BX*1), R13
	MOVQ   R12, CX

fib1col8row:
	FIBERSTEP8((AX), (R13), 32(R13), Y0, Y1)
	ADDQ $8, AX
	ADDQ R9, R13
	DECQ CX
	JNZ  fib1col8row
	LEAQ (DI)(BX*1), R13
	FIBERSUM8(Y0, Y1)
	ADDQ $64, BX
	JMP  fib1col8

fib1col4:
	LEAQ   32(BX), R13
	CMPQ   R13, R9
	JGT    fib1next
	VXORPD Y0, Y0, Y0
	MOVQ   SI, AX
	LEAQ   (R10)(BX*1), R13
	MOVQ   R12, CX

fib1col4row:
	FIBERSTEP4((AX), (R13), Y0)
	ADDQ $8, AX
	ADDQ R9, R13
	DECQ CX
	JNZ  fib1col4row
	LEAQ (DI)(BX*1), R13
	FIBERSUM4(Y0)

fib1next:
	ADDQ R8, SI
	ADDQ R9, DI
	DECQ R11
	JMP  fib1

fibdone:
	VZEROUPPER
	RET

// One row of a fold's run: the row of s at AX times its weights at DX, the
// product rounded, then added to the column block's running sums; on to the
// next row of each.
#define FOLDSTEP8 \
	VMOVUPD (AX), Y2; \
	VMOVUPD 32(AX), Y3; \
	VMULPD  (DX), Y2, Y2; \
	VMULPD  32(DX), Y3, Y3; \
	VADDPD  Y2, Y0, Y0; \
	VADDPD  Y3, Y1, Y1; \
	ADDQ    R8, AX; \
	ADDQ    R9, DX

#define FOLDSTEP4 \
	VMOVUPD (AX), Y2; \
	VMULPD  (DX), Y2, Y2; \
	VADDPD  Y2, Y0, Y0; \
	ADDQ    R8, AX; \
	ADDQ    R9, DX

// func foldAddAVX2(dst, s []float64, sStride int, w []float64, count, f int)
//
// dst[c] += s[q*sStride+c]*w[q*f+c] for q = 0..count-1 and c < f&^3, in
// column blocks of eight and then four. A block's sums are loaded from dst
// into Y0 (and Y1), run down the rows in order and are stored once. Needs
// count >= 1.
TEXT ·foldAddAVX2(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ s_base+24(FP), SI
	MOVQ sStride+48(FP), R8
	MOVQ w_base+56(FP), R10
	MOVQ count+80(FP), R11
	MOVQ f+88(FP), R9
	SHLQ $3, R8               // bytes between rows of s
	SHLQ $3, R9               // bytes per row of w
	XORQ BX, BX               // byte offset of the column block

fold8:
	LEAQ    64(BX), R13
	CMPQ    R13, R9
	JGT     fold4
	VMOVUPD (DI)(BX*1), Y0
	VMOVUPD 32(DI)(BX*1), Y1
	LEAQ    (SI)(BX*1), AX
	LEAQ    (R10)(BX*1), DX
	MOVQ    R11, CX

fold8row:
	FOLDSTEP8
	DECQ    CX
	JNZ     fold8row
	VMOVUPD Y0, (DI)(BX*1)
	VMOVUPD Y1, 32(DI)(BX*1)
	ADDQ    $64, BX
	JMP     fold8

fold4:
	LEAQ    32(BX), R13
	CMPQ    R13, R9
	JGT     folddone
	VMOVUPD (DI)(BX*1), Y0
	LEAQ    (SI)(BX*1), AX
	LEAQ    (R10)(BX*1), DX
	MOVQ    R11, CX

fold4row:
	FOLDSTEP4
	DECQ    CX
	JNZ     fold4row
	VMOVUPD Y0, (DI)(BX*1)

folddone:
	VZEROUPPER
	RET
