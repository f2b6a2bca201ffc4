package main

import (
	"fmt"
	"io"

	"graql/internal/server"
)

// tally counts what a phase's requests came to.
type tally struct {
	attempted  int
	ok         int            // right answer
	errors     int            // transport errors and error responses other than overloaded
	overloaded int            // refused by admission control
	race       int            // wrong answers explained by the shared result-table race
	wrong      int            // wrong answers with no such explanation
	codes      map[string]int // error responses by code
}

func (t *tally) add(u tally) {
	t.attempted += u.attempted
	t.ok += u.ok
	t.errors += u.errors
	t.overloaded += u.overloaded
	t.race += u.race
	t.wrong += u.wrong
	for k, v := range u.codes {
		if t.codes == nil {
			t.codes = map[string]int{}
		}
		t.codes[k] += v
	}
}

// failed counts every operation that did not return the right answer.
func (t *tally) failed() int { return t.errors + t.overloaded + t.race + t.wrong }

// checker compares responses with the workload's reference answers.
type checker struct {
	refs      refTable
	writeRefs map[string][]server.StmtResult // reference answer per write kind
	log       io.Writer                      // first few mismatches are described here
	shown     int
	inserted  map[string]int // acknowledged writes by kind, over every phase
}

// check classifies every outcome of one phase.
func (ck *checker) check(outs []*outcome) tally {
	t := tally{attempted: len(outs)}
	for _, o := range outs {
		switch {
		case o.err != nil || o.resp == nil:
			t.errors++
			t.count("transport")
		case !o.resp.OK && o.resp.Code == server.CodeOverloaded:
			t.overloaded++
			t.count(o.resp.Code)
		case !o.resp.OK:
			t.errors++
			t.count(o.resp.Code)
			ck.describe(o, "error "+o.resp.Code+": "+o.resp.Error)
		case o.req.isWrite():
			if sameAnswer(ck.writeRefs[o.req.write], o.resp.Results, nil) {
				t.ok++
				ck.inserted[o.req.write]++
			} else {
				t.wrong++
				ck.describe(o, "unexpected write answer")
			}
		case sameAnswer(ck.refs[o.req.key], o.resp.Results, o.req.q.specs):
			t.ok++
		case ck.raced(o, outs):
			t.race++
		default:
			t.wrong++
			ck.describe(o, "wrong answer")
		}
	}
	return t
}

func (t *tally) count(code string) {
	if t.codes == nil {
		t.codes = map[string]int{}
	}
	t.codes[code]++
}

// raced reports whether o's wrong answer is the result-table race: some
// request on another connection that writes the same result table was
// in flight at the same time, and o's answer is that request's.
func (ck *checker) raced(o *outcome, outs []*outcome) bool {
	if o.req.q.into == "" {
		return false
	}
	var others [][]server.StmtResult
	for _, p := range outs {
		if p == o || p.conn == o.conn || p.req.isWrite() || p.req.q.into != o.req.q.into {
			continue
		}
		if p.sent <= o.recv && o.sent <= p.recv {
			others = append(others, ck.refs[p.req.key])
		}
	}
	return raceExplained(o.resp.Results, ck.refs[o.req.key], others, o.req.q.specs)
}

func (ck *checker) describe(o *outcome, what string) {
	if ck.log == nil || ck.shown >= 5 {
		return
	}
	ck.shown++
	fmt.Fprintf(ck.log, "perfbench: %s: %s params=%v\n", what, o.req.label(), o.req.params)
}
