package expr

import (
	"math/rand"
	"testing"

	"softdb/internal/types"
	"softdb/internal/vec"
)

// FuzzKernelParity pins the compiled predicate program to the row-at-a-time
// tree-walk it replaces: for a randomized schema, randomized rows (with
// NULLs), and a randomized conjunction, the set of rows the staged kernels
// keep must equal the set EvalBool keeps, and an evaluation error on one
// path must surface on the other (error *ordering* may differ — see the
// package comment in kernel.go).
//
// The generator keeps each column's kind stable across rows (as the storage
// layer guarantees) but mixes comparison shapes: column-constant ranges
// that fuse into interval stages, <>, IS [NOT] NULL, column-column compares
// that must fall back to the generic stage, and occasional kind-mismatched
// constants that exercise error paths.
func FuzzKernelParity(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(16))
	f.Add(int64(2), uint8(2), uint8(64))
	f.Add(int64(3), uint8(3), uint8(5))
	f.Add(int64(-9), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, ncond, nrows uint8) {
		rng := rand.New(rand.NewSource(seed))
		// One seed in three draws null-free rows: the kernels' mask-free
		// loops only engage on a column with no NULL at all.
		nullEvery := 8
		if seed%3 == 0 {
			nullEvery = 0
		}
		rows := fuzzRows(rng, 1+int(nrows)%96, nullEvery)
		conds := fuzzConjuncts(rng, 1+int(ncond)%4)

		prog := CompilePredicate(conds)

		// Tree-walk path.
		var walkKept []int32
		var walkErr error
	walk:
		for i, row := range rows {
			for _, c := range conds {
				ok, err := EvalBool(c, row)
				if err != nil {
					walkErr = err
					break walk
				}
				if !ok {
					continue walk
				}
			}
			walkKept = append(walkKept, int32(i))
		}

		// Kernel path, over a row batch (private extraction) and over a
		// column batch holding the rows as a heap page's typed columns, as a
		// page scan hands them over.
		var plain, columns vec.Batch
		plain.Reset(rows)
		columnBatch(&columns, rows, fuzzKinds)
		for _, run := range []struct {
			name string
			b    *vec.Batch
		}{{"rows", &plain}, {"columns", &columns}} {
			sel, kernelErr := runKernels(prog, run.b)
			if (kernelErr != nil) != (walkErr != nil) {
				t.Fatalf("%s: error parity broken: kernel=%v walk=%v conds=%v", run.name, kernelErr, walkErr, conds)
			}
			if kernelErr != nil {
				continue // both error: ordering/row may differ by design
			}
			if len(sel) != len(walkKept) {
				t.Fatalf("%s: kept %d rows via kernels, %d via tree-walk (conds=%v)", run.name, len(sel), len(walkKept), conds)
			}
			for i := range sel {
				if sel[i] != walkKept[i] {
					t.Fatalf("%s: kept-set diverges at position %d: kernel row %d vs walk row %d (conds=%v)", run.name, i, sel[i], walkKept[i], conds)
				}
			}
		}
	})
}

// columnBatch resets b to rows held as typed columns of the given kinds, as
// a heap page stores them.
func columnBatch(b *vec.Batch, rows []types.Row, kinds []types.Kind) {
	cols := b.ResetColumns(len(rows), kinds)
	for ci := range cols {
		c := &cols[ci]
		c.Nulls = make([]bool, len(rows))
		switch c.Class {
		case vec.ClassInt:
			c.Ints = make([]int64, len(rows))
		case vec.ClassFloat:
			c.Floats = make([]float64, len(rows))
		default:
			c.Strs = make([]string, len(rows))
		}
		for i, row := range rows {
			switch d := row[ci]; {
			case d.IsNull():
				c.Nulls[i], c.HasNulls = true, true
			case c.Class == vec.ClassInt:
				c.Ints[i] = d.IntImage()
			case c.Class == vec.ClassFloat:
				c.Floats[i] = d.Float()
			default:
				c.Strs[i] = d.Str()
			}
		}
	}
}

// runKernels runs every stage over an identity selection, ping-ponging two
// buffers the way the executor does (RunStage's out may not alias its sel).
func runKernels(prog *PredProgram, b *vec.Batch) ([]int32, error) {
	sel := vec.IdentitySel(nil, b.Size())
	out := make([]int32, 0, b.Size())
	for i := range prog.Stages {
		res, err := prog.RunStage(i, b, sel, out)
		if err != nil {
			return nil, err
		}
		sel, out = res, sel[:0]
	}
	return sel, nil
}

// Fuzz schema: #0 a INT, #1 b FLOAT, #2 c STRING, #3 d DATE, #4 e INT.
// Two INT columns so column-column compares have a same-kind pair.
var fuzzKinds = []types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindDate, types.KindInt}

// fuzzRows draws n rows; one datum in nullEvery is NULL (none when 0).
func fuzzRows(rng *rand.Rand, n, nullEvery int) []types.Row {
	words := []string{"ape", "box", "cat", "dog", "elk", "fox"}
	rows := make([]types.Row, n)
	for i := range rows {
		row := make(types.Row, len(fuzzKinds))
		for ord, k := range fuzzKinds {
			if nullEvery > 0 && rng.Intn(nullEvery) == 0 {
				row[ord] = types.Null
				continue
			}
			switch k {
			case types.KindInt:
				row[ord] = types.NewInt(int64(rng.Intn(21) - 10))
			case types.KindFloat:
				row[ord] = types.NewFloat(float64(rng.Intn(41)-20) / 2)
			case types.KindString:
				row[ord] = types.NewString(words[rng.Intn(len(words))])
			case types.KindDate:
				row[ord] = types.NewDate(int64(10000 + rng.Intn(30)))
			}
		}
		rows[i] = row
	}
	return rows
}

// fuzzConst draws a constant from the same domain as fuzzRows, so
// comparisons hit bounds and interior values often. With a small
// probability the constant's kind mismatches the column, exercising the
// comparison error paths on both the kernel and the tree-walk.
func fuzzConst(rng *rand.Rand, k types.Kind) types.Datum {
	if rng.Intn(16) == 0 {
		if k == types.KindString {
			return types.NewInt(3)
		}
		return types.NewString("oops")
	}
	switch k {
	case types.KindFloat:
		return types.NewFloat(float64(rng.Intn(41)-20) / 2)
	case types.KindString:
		return types.NewString([]string{"ape", "cat", "fox", "zzz"}[rng.Intn(4)])
	case types.KindDate:
		return types.NewDate(int64(10000 + rng.Intn(30)))
	default:
		return types.NewInt(int64(rng.Intn(21) - 10))
	}
}

func fuzzConjuncts(rng *rand.Rand, n int) []Expr {
	ops := []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}
	names := []string{"a", "b", "c", "d", "e"}
	conds := make([]Expr, n)
	for i := range conds {
		ord := rng.Intn(len(fuzzKinds))
		col := NewColumn("", names[ord], ord, fuzzKinds[ord])
		switch rng.Intn(6) {
		case 0:
			conds[i] = NewUnary(OpIsNull, col)
		case 1:
			conds[i] = NewUnary(OpIsNotNull, col)
		case 2: // column-column: forces the generic stage
			other := rng.Intn(len(fuzzKinds))
			conds[i] = NewBinary(ops[rng.Intn(len(ops))], col,
				NewColumn("", names[other], other, fuzzKinds[other]))
		default:
			op := ops[rng.Intn(len(ops))]
			c := NewConst(fuzzConst(rng, fuzzKinds[ord]))
			if rng.Intn(2) == 0 { // constant on the left too
				conds[i] = NewBinary(op, c, col)
			} else {
				conds[i] = NewBinary(op, col, c)
			}
		}
	}
	return conds
}
