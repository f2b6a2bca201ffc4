package main

import (
	"testing"
	"time"

	"graql/internal/server"
)

func table(cols []string, rows ...[]string) server.StmtResult {
	return server.StmtResult{Columns: cols, Rows: rows}
}

func TestSameResultOrderTies(t *testing.T) {
	cols := []string{"id", "groupCount"}
	spec := stmtSpec{orderBy: []string{"groupCount"}}
	want := table(cols, []string{"a", "3"}, []string{"b", "2"}, []string{"c", "2"}, []string{"d", "1"})

	// b and c tie on the only ordering key: either order is right.
	tied := table(cols, []string{"a", "3"}, []string{"c", "2"}, []string{"b", "2"}, []string{"d", "1"})
	if !sameResult(want, tied, spec) {
		t.Errorf("rows tied on every order key must compare equal in any order")
	}
	// d before c breaks the ordering.
	misordered := table(cols, []string{"a", "3"}, []string{"b", "2"}, []string{"d", "1"}, []string{"c", "2"})
	if sameResult(want, misordered, spec) {
		t.Errorf("a different key sequence must not compare equal")
	}
	// Same key sequence, different rows.
	other := table(cols, []string{"a", "3"}, []string{"b", "2"}, []string{"x", "2"}, []string{"d", "1"})
	if sameResult(want, other, spec) {
		t.Errorf("a different multiset must not compare equal")
	}
	// A total order (groupCount, id) leaves no ties.
	total := stmtSpec{orderBy: []string{"groupCount", "id"}}
	if sameResult(want, tied, total) {
		t.Errorf("with id as a tie-breaker the swapped rows are wrong")
	}
}

func TestSameResultUnordered(t *testing.T) {
	cols := []string{"id"}
	want := table(cols, []string{"a"}, []string{"b"}, []string{"b"})
	if !sameResult(want, table(cols, []string{"b"}, []string{"a"}, []string{"b"}), stmtSpec{}) {
		t.Errorf("an unordered result must compare as a multiset")
	}
	if sameResult(want, table(cols, []string{"a"}, []string{"a"}, []string{"b"}), stmtSpec{}) {
		t.Errorf("multiplicities must match")
	}
	if sameResult(want, table([]string{"ID"}, []string{"a"}, []string{"b"}, []string{"b"}), stmtSpec{}) {
		t.Errorf("columns must match")
	}
	if sameResult(server.StmtResult{Message: "150 rows"}, server.StmtResult{Message: "149 rows"}, stmtSpec{}) {
		t.Errorf("messages must match")
	}
}

func TestRaceExplained(t *testing.T) {
	specs := []stmtSpec{{}, {orderBy: []string{"n", "id"}}}
	cols := []string{"id", "n"}
	mine := []server.StmtResult{{Message: "into T1"}, table(cols, []string{"p1", "5"})}
	theirs := []server.StmtResult{{Message: "into T1 too"}, table(cols, []string{"p9", "7"})}

	// My first statement ran; my read of T1 saw their rows.
	raced := []server.StmtResult{mine[0], theirs[1]}
	if !raceExplained(raced, mine, [][]server.StmtResult{theirs}, specs) {
		t.Errorf("reading the concurrent script's table must count as the race")
	}
	if raceExplained(raced, mine, nil, specs) {
		t.Errorf("without an overlapping writer of the table it is not the race")
	}
	garbage := []server.StmtResult{mine[0], table(cols, []string{"zz", "1"})}
	if raceExplained(garbage, mine, [][]server.StmtResult{theirs}, specs) {
		t.Errorf("an answer nobody's reference explains is a wrong answer")
	}
	badFirst := []server.StmtResult{{Message: "other"}, theirs[1]}
	if raceExplained(badFirst, mine, [][]server.StmtResult{theirs}, specs) {
		t.Errorf("a wrong first statement is not explained by the race")
	}
}

func TestCheckerClassifies(t *testing.T) {
	specs := []stmtSpec{{}, {}}
	q := &query{name: "BQ2", into: "T1", specs: specs}
	ref := func(id string) []server.StmtResult {
		return []server.StmtResult{{Message: "into " + id}, table([]string{"id"}, []string{id})}
	}
	ck := &checker{refs: refTable{ref("a"), ref("b")}, inserted: map[string]int{}}
	ok := func(rs []server.StmtResult) *server.Response { return &server.Response{OK: true, Results: rs} }
	ms := time.Millisecond
	outs := []*outcome{
		// Right answer.
		{req: request{q: q, key: 0}, conn: 0, sent: 0, recv: 2 * ms, resp: ok(ref("a"))},
		// Key 1 saw key 0's table while key 0 (other connection) overlapped.
		{req: request{q: q, key: 1}, conn: 1, sent: ms, recv: 3 * ms, resp: ok([]server.StmtResult{ref("b")[0], ref("a")[1]})},
		// Same wrong answer with no overlapping writer: unexplained.
		{req: request{q: q, key: 1}, conn: 1, sent: 10 * ms, recv: 11 * ms, resp: ok([]server.StmtResult{ref("b")[0], ref("a")[1]})},
		{req: request{q: q, key: 0}, conn: 0, sent: 12 * ms, recv: 13 * ms, resp: &server.Response{Code: server.CodeOverloaded}},
		{req: request{q: q, key: 0}, conn: 0, sent: 14 * ms, recv: 15 * ms, resp: &server.Response{Code: server.CodeExec}},
	}
	got := ck.check(outs)
	if got.ok != 1 || got.race != 1 || got.wrong != 1 || got.overloaded != 1 || got.errors != 1 || got.failed() != 4 {
		t.Errorf("tally = %+v", got)
	}
}
