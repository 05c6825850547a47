package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"softdb/internal/client"
	"softdb/internal/types"
)

// answerHash folds one answer into an FNV-64: column names, then every
// datum. Rows are folded in order when the text has an ORDER BY and as an
// order-free sum otherwise, since the reference plan may emit them in
// another order. Floats are hashed at 4 decimals: a SUM over an index scan
// and over a heap scan adds in different orders, and every float the
// loaders store is a multiple of 0.01, so no true sum sits on a rounding tie
// of the fourth decimal.
func answerHash(text string, cols []string, rows []types.Row) uint64 {
	h := fnv.New64a()
	for _, c := range cols {
		io.WriteString(h, c)
		h.Write([]byte{0})
	}
	ordered := strings.Contains(text, "ORDER BY")
	sum := h.Sum64()
	for _, row := range rows {
		rh := h
		if !ordered {
			rh = fnv.New64a()
		}
		for _, d := range row {
			if d.Kind() == types.KindFloat {
				io.WriteString(rh, strconv.FormatFloat(d.Float(), 'f', 4, 64))
			} else {
				io.WriteString(rh, d.String())
			}
			rh.Write([]byte{0})
		}
		rh.Write([]byte{1})
		if !ordered {
			sum += rh.Sum64()
		}
	}
	if ordered {
		return h.Sum64()
	}
	return sum
}

// gate is the correctness gate, run after the window: up to maxChecks of
// the distinct check-marked SELECT texts the clients sent are executed
// again over the wire, then on the workload's reference executor, and the
// two answers must hash alike. On read-only workloads the answer a client
// got inside the window must match too.
func gate(r *run, sys *system, streams []stream, logs []*clientLog) (checked, wrong int, err error) {
	if r.wl.reference == nil {
		return 0, 0, nil
	}
	inWindow := map[string]uint64{}
	for _, log := range logs {
		for text, h := range log.seen {
			inWindow[text] = h
		}
	}
	texts := make([]string, 0, len(inWindow))
	for text := range inWindow {
		texts = append(texts, text)
	}
	sort.Strings(texts)
	if len(texts) > maxChecks {
		// Keep an even spread of the sorted texts, not one prefix of them.
		kept := make([]string, maxChecks)
		for i := range kept {
			kept[i] = texts[i*len(texts)/maxChecks]
		}
		texts = kept
	}
	conn, err := client.Connect(sys.addr)
	if err != nil {
		return 0, 0, err
	}
	defer conn.Close()
	wire := make([]uint64, len(texts))
	for i, text := range texts {
		res, err := conn.Query(context.Background(), text)
		if err != nil {
			return 0, 0, fmt.Errorf("gate, over the wire: %q: %w", text, err)
		}
		wire[i] = answerHash(text, res.Columns, res.Rows)
	}
	ref, err := r.wl.reference(r, sys, streams)
	if err != nil {
		return 0, 0, fmt.Errorf("build reference: %w", err)
	}
	for i, text := range texts {
		res, err := ref(text)
		if err != nil {
			return checked, wrong, fmt.Errorf("gate, reference: %q: %w", text, err)
		}
		want := answerHash(text, res.Columns, res.Rows)
		checked++
		if wire[i] != want || (sys.readOnly && inWindow[text] != want) {
			wrong++
			r.notef("wrong answer: %s", text)
		}
	}
	return checked, wrong, nil
}

// copyDir copies every file of src into dst byte for byte — what a kill -9
// leaves behind, since the WAL is append-only and snapshots are installed
// by atomic rename.
func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
