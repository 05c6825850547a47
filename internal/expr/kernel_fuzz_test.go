package expr

import (
	"fmt"
	"math"
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
// (bare or offset by a constant, typed for INT, DATE and FLOAT, generic for
// the rest), and occasional kind-mismatched constants and kind edges that
// exercise error and wrap paths.
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

// TestColColStageCompiles: ship_window's two conjuncts compile to typed
// column-column stages, and shapes whose arithmetic can fail by kind (a
// DATE plus a FLOAT, a DATE subtracted from an INT) or that multiply stay
// generic.
func TestColColStageCompiles(t *testing.T) {
	order, ship := NewColumn("", "order_date", 0, types.KindDate), NewColumn("", "ship_date", 1, types.KindDate)
	amount, n := NewColumn("", "amount", 2, types.KindFloat), NewColumn("", "n", 3, types.KindInt)
	for _, c := range []struct {
		cond  Expr
		typed bool
	}{
		{NewBinary(OpGe, ship, order), true},
		{NewBinary(OpLe, ship, NewBinary(OpAdd, order, NewConst(types.NewInt(21)))), true},
		{NewBinary(OpGt, NewBinary(OpSub, order, NewConst(types.NewInt(3))), ship), true},
		{NewBinary(OpLt, amount, NewBinary(OpAdd, NewConst(types.NewFloat(0.5)), n)), true},
		{NewBinary(OpLt, amount, NewBinary(OpAdd, order, NewConst(types.NewFloat(0.5)))), false},
		{NewBinary(OpLt, n, NewBinary(OpSub, n, NewConst(types.NewDate(3)))), false},
		{NewBinary(OpLt, n, NewBinary(OpMul, n, NewConst(types.NewInt(3)))), false},
	} {
		p := CompilePredicate([]Expr{c.cond})
		if got := p.Stages[0].Mode == StageColCol && p.Typed(0); got != c.typed {
			t.Errorf("%s: typed column-column stage %v, want %v", c.cond, got, c.typed)
		}
	}
}

// TestColColStageErrors: a column-column stage fails where the tree-walk
// fails — an offset sum that is NaN (an infinity meeting its opposite),
// whatever the other column holds — and keeps what it keeps everywhere
// else, NULLs and infinities included.
func TestColColStageErrors(t *testing.T) {
	a, b := NewColumn("", "a", 0, types.KindInt), NewColumn("", "b", 1, types.KindFloat)
	inf := math.Inf(1)
	for _, c := range []struct {
		cond Expr
		rows []types.Row
	}{
		{NewBinary(OpLt, a, NewBinary(OpAdd, b, NewConst(types.NewFloat(inf)))),
			[]types.Row{{types.NewInt(1), types.NewFloat(2)}, {types.Null, types.NewFloat(-inf)}}},
		{NewBinary(OpGe, NewBinary(OpSub, b, NewConst(types.NewFloat(-inf))), a),
			[]types.Row{{types.NewInt(1), types.NewFloat(inf)}, {types.NewInt(3), types.Null}, {types.NewInt(2), types.NewFloat(-inf)}}},
		{NewBinary(OpLe, b, NewBinary(OpAdd, NewConst(types.NewInt(2)), a)),
			[]types.Row{{types.NewInt(1), types.NewFloat(inf)}, {types.Null, types.NewFloat(1)}, {types.NewInt(math.MaxInt64), types.NewFloat(-inf)}}},
	} {
		prog := CompilePredicate([]Expr{c.cond})
		if prog.Stages[0].Mode != StageColCol {
			t.Fatalf("%s: not a column-column stage", c.cond)
		}
		var walkKept []int32
		var walkErr error
		for i, row := range c.rows {
			ok, err := EvalBool(c.cond, row)
			if err != nil {
				walkErr = err
				break
			}
			if ok {
				walkKept = append(walkKept, int32(i))
			}
		}
		var columns vec.Batch
		columnBatch(&columns, c.rows, []types.Kind{types.KindInt, types.KindFloat})
		kept, err := runKernels(prog, &columns)
		if (err != nil) != (walkErr != nil) || (err == nil && fmt.Sprint(kept) != fmt.Sprint(walkKept)) {
			t.Errorf("%s: kernel kept %v (error %v), tree-walk %v (error %v)", c.cond, kept, err, walkKept, walkErr)
		}
	}
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
				if rng.Intn(24) == 0 {
					row[ord] = types.NewFloat(math.Inf(1 - 2*rng.Intn(2)))
				}
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

// fuzzOffset draws the constant of a column-column compare's offset to a
// column of kind k: a small INT, a FLOAT (not for a DATE column), a DATE
// (for an INT column, which it only adds to), or a kind edge (an INT that
// wraps, -0). Offsets whose arithmetic can fail (a STRING, a DATE plus a
// FLOAT, an infinity that meets its opposite) are TestColColStageErrors':
// a failing conjunct that a program runs after a stage that kept no row
// raises nothing, while the tree-walk, which evaluates the conjuncts in
// textual order, fails.
func fuzzOffset(rng *rand.Rand, k types.Kind) types.Datum {
	switch rng.Intn(6) {
	case 0:
		return types.NewInt([]int64{math.MaxInt64, math.MinInt64, math.MinInt64 + 1}[rng.Intn(3)])
	case 1:
		if k != types.KindDate {
			return types.NewFloat(math.Copysign(0, -1))
		}
	case 2:
		if k == types.KindInt {
			return types.NewDate(int64(rng.Intn(30)))
		}
	case 3:
		if k != types.KindDate {
			return types.NewFloat(float64(rng.Intn(9)-4) / 2)
		}
	}
	return types.NewInt(int64(rng.Intn(9) - 4))
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
		case 2: // column-column, bare or offset by a constant
			other := rng.Intn(len(fuzzKinds))
			var right Expr = NewColumn("", names[other], other, fuzzKinds[other])
			if k := fuzzKinds[other]; k != types.KindString && rng.Intn(4) > 0 {
				off := NewConst(fuzzOffset(rng, k))
				switch {
				case off.Value.Kind() == types.KindDate || rng.Intn(3) == 0:
					right = NewBinary(OpAdd, off, right)
				case rng.Intn(2) == 0:
					right = NewBinary(OpAdd, right, off)
				default:
					right = NewBinary(OpSub, right, off)
				}
			}
			op := ops[rng.Intn(len(ops))]
			if rng.Intn(2) == 0 {
				conds[i] = NewBinary(op, right, col)
			} else {
				conds[i] = NewBinary(op, col, right)
			}
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
