package main

import (
	"fmt"
	"slices"
	"strings"

	"graql/internal/server"
)

// The output oracle. Before timing, every distinct (statement,
// parameters) pair a workload can send is executed serially on one
// connection; those answers are the references. During timing every
// response is compared with its reference. Rows compare as a multiset,
// so execution order is free, except that where a statement orders its
// result the ordering key columns must match position by position (rows
// tied on every key may still come in any order).

// stmtSpec says how to compare one statement's result.
type stmtSpec struct {
	orderBy []string // result columns the statement orders by; nil = unordered
}

// query is one script a workload sends, with its comparison rules.
type query struct {
	name   string
	script string
	specs  []stmtSpec // one per statement
	// into is the result table the script writes and then reads back
	// ("" when it re-reads nothing). Scripts writing the same table on
	// concurrent connections race on it; see raceExplained.
	into string
}

// sameResult reports whether got matches want under spec.
func sameResult(want, got server.StmtResult, spec stmtSpec) bool {
	if want.Message != got.Message || want.SubgraphName != got.SubgraphName ||
		want.SubgraphVertices != got.SubgraphVertices || want.SubgraphEdges != got.SubgraphEdges ||
		!slices.Equal(want.Columns, got.Columns) || len(want.Rows) != len(got.Rows) {
		return false
	}
	if len(spec.orderBy) > 0 {
		keys := make([]int, 0, len(spec.orderBy))
		for _, name := range spec.orderBy {
			if i := slices.Index(want.Columns, name); i >= 0 {
				keys = append(keys, i)
			}
		}
		for r := range want.Rows {
			for _, k := range keys {
				if want.Rows[r][k] != got.Rows[r][k] {
					return false
				}
			}
		}
	}
	return slices.Equal(rowSet(want.Rows), rowSet(got.Rows))
}

// rowSet renders rows as a sorted list of encoded rows: equal lists mean
// equal multisets.
func rowSet(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = strings.Join(r, "\x1f")
	}
	slices.Sort(out)
	return out
}

// sameAnswer compares a whole response (one result per statement).
func sameAnswer(want, got []server.StmtResult, specs []stmtSpec) bool {
	if len(want) != len(got) {
		return false
	}
	for i := range want {
		if !sameResult(want[i], got[i], specOf(specs, i)) {
			return false
		}
	}
	return true
}

func specOf(specs []stmtSpec, i int) stmtSpec {
	if i < len(specs) {
		return specs[i]
	}
	return stmtSpec{}
}

// raceExplained reports whether a wrong answer of a script that writes
// and re-reads a result table is exactly what a concurrent script over
// the same table produces: every statement but the last matches the
// script's own reference, and the last matches the reference last
// statement of one of the overlapping requests (others). Such a
// mismatch is the shared-result-table race (two sessions' "into table
// T1" interleaving); any other mismatch is unexplained.
func raceExplained(got, own []server.StmtResult, others [][]server.StmtResult, specs []stmtSpec) bool {
	n := len(own)
	if n < 2 || len(got) != n {
		return false
	}
	if !sameAnswer(own[:n-1], got[:n-1], specs) {
		return false
	}
	last := specOf(specs, n-1)
	for _, o := range others {
		if len(o) > 0 && sameResult(o[len(o)-1], got[n-1], last) {
			return true
		}
	}
	return false
}

// refTable holds the reference answer of every distinct read a workload
// can send, indexed by the read's key.
type refTable [][]server.StmtResult

// computeRefs runs every read serially on one connection.
func computeRefs(c *conn, reads []request, prep map[string]string) (refTable, error) {
	refs := make(refTable, len(reads))
	for i := range reads {
		req := reads[i].wireRequest(prep, "")
		resp, err := c.mustOK(req)
		if err != nil {
			return nil, fmt.Errorf("reference answer %d (%s): %v", i, reads[i].label(), err)
		}
		refs[i] = resp.Results
	}
	return refs, nil
}
