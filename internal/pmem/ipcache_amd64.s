#include "textflag.h"

// func getfp() unsafe.Pointer
// NOFRAME leaves BP alone, so it still holds the caller's frame pointer.
TEXT ·getfp(SB),NOSPLIT|NOFRAME,$0-8
	MOVQ	BP, AX
	MOVQ	AX, ret+0(FP)
	RET
