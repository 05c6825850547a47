package mining

import (
	"fmt"
	"math"

	"softdb/internal/catalog"
	"softdb/internal/expr"
	"softdb/internal/types"
	"softdb/internal/vec"
)

// HoleMinerConfig controls join-hole discovery.
type HoleMinerConfig struct {
	// Grid is the resolution of the occupancy grid in each dimension. The
	// [8] algorithm finds exact maximal empty rectangles in time linear in
	// the join size; we reproduce the linear-time property with a
	// grid-quantized variant: one linear pass marks occupied cells, then
	// maximal empty rectangles are extracted from the g×g grid. Holes are
	// conservative (rounded inward), so trimming by them is always sound.
	// Default 32.
	Grid int
	// MinCells drops holes covering fewer grid cells (noise). Default 4.
	MinCells int
	// MaxHoles caps the report, largest first. Default 16.
	MaxHoles int
}

func (c *HoleMinerConfig) defaults() {
	if c.Grid <= 0 {
		c.Grid = 32
	}
	if c.MinCells <= 0 {
		c.MinCells = 4
	}
	if c.MaxHoles <= 0 {
		c.MaxHoles = 16
	}
}

// JoinHoleRequest names the join path and profiled attributes.
type JoinHoleRequest struct {
	Left, Right         *catalog.TableEntry
	JoinLeft, JoinRight string // equi-join columns
	AttrLeft, AttrRight string // profiled attributes
	Config              HoleMinerConfig
	// Probes, when set, receives the hash-table probes the join made: the
	// work measure E10 gates on.
	Probes *int
}

// MineJoinHoles executes the equi-join (hash join, linear in input and
// output sizes), collects the (AttrLeft, AttrRight) points of the result,
// and extracts maximal empty rectangles. It returns the hole set ready for
// catalog registration, plus the number of join result rows profiled.
func MineJoinHoles(req JoinHoleRequest) (*catalog.JoinHoles, int, error) {
	cfg := req.Config
	cfg.defaults()
	jl := req.Left.Def.ColumnIndex(req.JoinLeft)
	jr := req.Right.Def.ColumnIndex(req.JoinRight)
	al := req.Left.Def.ColumnIndex(req.AttrLeft)
	ar := req.Right.Def.ColumnIndex(req.AttrRight)
	if jl < 0 || jr < 0 || al < 0 || ar < 0 {
		return nil, 0, fmt.Errorf("mining: unknown column in join-hole request")
	}
	// A hash join over the typed columns: build on the right, probe with the
	// left. Keys join when they are equal values of one kind.
	lc, rc := req.Left.Heap.Columns([]int{jl, al}), req.Right.Heap.Columns([]int{jr, ar})
	kindA := req.Left.Def.Columns[al].Type
	kindB := req.Right.Def.Columns[ar].Type
	left := joinSide{lc[0].Nulls, numericOf(&lc[1], kindA)}
	right := joinSide{rc[0].Nulls, numericOf(&rc[1], kindB)}
	var ptsA, ptsB []float64
	probes := 0
	if kl, kr := req.Left.Def.Columns[jl].Type, req.Right.Def.Columns[jr].Type; kl == kr && left.attr.vals != nil && right.attr.vals != nil {
		switch lc[0].Class {
		case vec.ClassInt:
			ptsA, ptsB, probes = joinPoints(lc[0].Ints, rc[0].Ints, left, right)
		case vec.ClassFloat:
			ptsA, ptsB, probes = joinPoints(lc[0].Floats, rc[0].Floats, left, right)
		default:
			ptsA, ptsB, probes = joinPoints(lc[0].Strs, rc[0].Strs, left, right)
		}
	}
	if req.Probes != nil {
		*req.Probes = probes
	}
	if len(ptsA) == 0 {
		return nil, 0, fmt.Errorf("mining: empty join result; nothing to profile")
	}
	holes := ExtractHoles(ptsA, ptsB, kindA, kindB, cfg)
	jh := &catalog.JoinHoles{
		LeftTable:  req.Left.Def.Name,
		RightTable: req.Right.Def.Name,
		JoinLeft:   req.JoinLeft,
		JoinRight:  req.JoinRight,
		AttrLeft:   req.AttrLeft,
		AttrRight:  req.AttrRight,
		Holes:      holes,
	}
	jh.VerifiedVersion = req.Left.Heap.Version()
	return jh, len(ptsA), nil
}

// joinSide is one input of the profiled join: its join key column's null
// mask and its profiled attribute.
type joinSide struct {
	keyNulls []bool
	attr     numeric
}

// joinPoints hash-joins the sides on their keys (lkeys and rkeys, the key
// columns' values) and returns the (AttrLeft, AttrRight) pair of every
// result row, in probe order, and the probes made; rows with a NULL key or
// attribute join nothing.
func joinPoints[K comparable](lkeys, rkeys []K, left, right joinSide) (ptsA, ptsB []float64, probes int) {
	build := map[K][]float64{}
	for r, k := range rkeys {
		if !right.keyNulls[r] && !right.attr.nulls[r] {
			build[k] = append(build[k], right.attr.vals[r])
		}
	}
	for r, k := range lkeys {
		if left.keyNulls[r] || left.attr.nulls[r] {
			continue
		}
		probes++
		for _, b := range build[k] {
			ptsA = append(ptsA, left.attr.vals[r])
			ptsB = append(ptsB, b)
		}
	}
	return ptsA, ptsB, probes
}

// ExtractHoles grids the point set and enumerates maximal empty rectangles
// over the grid, converting them back to (conservatively shrunk) value
// rectangles.
func ExtractHoles(ptsA, ptsB []float64, kindA, kindB types.Kind, cfg HoleMinerConfig) []catalog.Rect {
	cfg.defaults()
	g := cfg.Grid
	minA, maxA := minMax(ptsA)
	minB, maxB := minMax(ptsB)
	if maxA <= minA || maxB <= minB {
		return nil
	}
	// Occupancy grid: one linear pass.
	occupied := make([]bool, g*g)
	cell := func(v, lo, hi float64) int {
		c := int(float64(g) * (v - lo) / (hi - lo))
		if c >= g {
			c = g - 1
		}
		if c < 0 {
			c = 0
		}
		return c
	}
	for i := range ptsA {
		occupied[cell(ptsA[i], minA, maxA)*g+cell(ptsB[i], minB, maxB)] = true
	}
	rects := maximalEmptyRects(occupied, g)
	// Convert cell rectangles to value rectangles, rounding inward so the
	// reported hole is truly empty.
	cellLoA := func(c int) float64 { return minA + float64(c)*(maxA-minA)/float64(g) }
	cellLoB := func(c int) float64 { return minB + float64(c)*(maxB-minB)/float64(g) }
	var out []catalog.Rect
	for _, r := range rects {
		if (r.a2-r.a1+1)*(r.b2-r.b1+1) < cfg.MinCells {
			continue
		}
		ia, ok1 := valueInterval(cellLoA(r.a1), cellLoA(r.a2+1), kindA)
		ib, ok2 := valueInterval(cellLoB(r.b1), cellLoB(r.b2+1), kindB)
		if !ok1 || !ok2 {
			continue
		}
		// A hole reaching the grid edge extends unbounded on that side:
		// the bounding box is the extent of actual join results, so the
		// region beyond it is empty too.
		if r.a1 == 0 {
			ia.HasLo = false
		}
		if r.a2 == g-1 {
			ia.HasHi = false
		}
		if r.b1 == 0 {
			ib.HasLo = false
		}
		if r.b2 == g-1 {
			ib.HasHi = false
		}
		out = append(out, catalog.Rect{A: ia, B: ib})
		if len(out) >= cfg.MaxHoles {
			break
		}
	}
	return out
}

// valueInterval converts a half-open float cell range [lo, hi) into a
// closed datum interval shrunk inward for integer kinds.
func valueInterval(lo, hi float64, kind types.Kind) (expr.Interval, bool) {
	switch kind {
	case types.KindInt, types.KindDate:
		l := int64(math.Ceil(lo))
		h := int64(math.Ceil(hi)) - 1
		if l > h {
			return expr.Interval{}, false
		}
		mk := types.NewInt
		if kind == types.KindDate {
			mk = types.NewDate
		}
		return expr.Between(mk(l), mk(h), true, true), true
	default:
		if lo >= hi {
			return expr.Interval{}, false
		}
		return expr.Between(types.NewFloat(lo), types.NewFloat(hi), true, false), true
	}
}

type cellRect struct{ a1, a2, b1, b2 int }

// maximalEmptyRects enumerates maximal all-empty axis-aligned rectangles in
// a g×g occupancy grid, largest area first. The classic histogram-stack
// method runs in O(g²) per orientation.
func maximalEmptyRects(occupied []bool, g int) []cellRect {
	// For each cell, height of the empty column ending at this row.
	heights := make([]int, g)
	var out []cellRect
	seen := map[cellRect]bool{}
	for a := 0; a < g; a++ {
		for b := 0; b < g; b++ {
			if occupied[a*g+b] {
				heights[b] = 0
			} else {
				heights[b]++
			}
		}
		// Maximal rectangles ending at row a via the histogram.
		type stkEnt struct{ start, h int }
		var stack []stkEnt
		for b := 0; b <= g; b++ {
			h := 0
			if b < g {
				h = heights[b]
			}
			start := b
			for len(stack) > 0 && stack[len(stack)-1].h >= h {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if top.h > 0 {
					r := cellRect{a1: a - top.h + 1, a2: a, b1: top.start, b2: b - 1}
					// Keep only rectangles maximal in height at this row
					// (the histogram guarantees width-maximality).
					if !seen[r] {
						seen[r] = true
						out = append(out, r)
					}
				}
				start = top.start
			}
			if h > 0 && (len(stack) == 0 || stack[len(stack)-1].h < h) {
				stack = append(stack, stkEnt{start: start, h: h})
			}
		}
	}
	// Drop rectangles contained in another; sort by area descending.
	out = dropContained(out)
	return out
}

func dropContained(rects []cellRect) []cellRect {
	area := func(r cellRect) int { return (r.a2 - r.a1 + 1) * (r.b2 - r.b1 + 1) }
	// Sort by area descending so containment checks see big ones first.
	for i := 1; i < len(rects); i++ {
		for j := i; j > 0 && area(rects[j]) > area(rects[j-1]); j-- {
			rects[j], rects[j-1] = rects[j-1], rects[j]
		}
	}
	var kept []cellRect
	for _, r := range rects {
		contained := false
		for _, k := range kept {
			if k.a1 <= r.a1 && r.a2 <= k.a2 && k.b1 <= r.b1 && r.b2 <= k.b2 {
				contained = true
				break
			}
		}
		if !contained {
			kept = append(kept, r)
		}
	}
	return kept
}

func minMax(v []float64) (float64, float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range v {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}
