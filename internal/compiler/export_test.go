package compiler

import "repro/internal/isa"

// WorkChunkIters exports workChunkIters to the external tests.
const WorkChunkIters = workChunkIters

// BufCap reports the capacity of a generated program's instruction buffer.
func BufCap(p isa.Program) int { return cap(p.(*generator).buf) }
