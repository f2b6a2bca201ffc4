package exec

import (
	"context"
	"fmt"

	"graql/internal/ast"
	"graql/internal/ir"
	"graql/internal/parser"
	"graql/internal/value"
)

// Prepared statements split one-time compilation from repeated
// parameterized evaluation (the prepare/execute model of SQL and
// GQL/SQL-PGQ). Prepare runs lexer→parser once and compiles the script
// to the binary IR — the same artifact the GEMS front-end ships to the
// backend (paper §III) — and, for read-only scripts, analyzes every
// select eagerly so semantic errors surface at prepare time and the plan
// cache is warm before the first execute. Execute binds %name%
// parameters and runs the cached artifact: no lexing, no parsing, and —
// via the plan cache — no re-analysis until the catalog epoch moves.

// Prepared is a compiled statement handle. It is immutable after
// Prepare and safe for concurrent Execute calls. Its statements are
// materialized from the IR blob, so the handle shares no backing memory
// with the source text it was prepared from.
type Prepared struct {
	text  string // canonical script rendering
	blob  []byte // the binary IR — the handle's backing artifact
	stmts []ast.Stmt
	ids   []stmtIdent
	ro    bool // no statement mutates the catalog
}

// Text returns the canonical rendering of the prepared script.
func (p *Prepared) Text() string { return p.text }

// IR returns the handle's binary IR blob (the compiled artifact the
// wire protocol ships).
func (p *Prepared) IR() []byte { return p.blob }

// NumStmts reports how many statements the handle executes per call.
func (p *Prepared) NumStmts() int { return len(p.stmts) }

// ReadOnly reports whether the script is free of catalog mutations
// (DDL, DML, ingest, into-selects). Read-only handles were fully
// analyzed at prepare time; handles with writes defer analysis of
// statements that depend on earlier statements' effects to Execute.
func (p *Prepared) ReadOnly() bool { return p.ro }

// Prepare compiles a script into a reusable statement handle: parse →
// binary IR → per-statement fingerprints, plus eager semantic analysis
// (which also warms the plan cache) when the script is read-only.
func (e *Engine) Prepare(src string) (*Prepared, error) {
	script, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	if len(script.Stmts) == 0 {
		return nil, fmt.Errorf("graql: cannot prepare an empty script")
	}
	blob, err := ir.Encode(script)
	if err != nil {
		return nil, err
	}
	return e.prepareIR(blob)
}

// PrepareIR builds a statement handle directly from compiled IR bytes
// (e.g. a client-side "compile" result), skipping the text front-end.
func (e *Engine) PrepareIR(blob []byte) (*Prepared, error) {
	return e.prepareIR(blob)
}

// DecodeIR decodes an IR blob into its statements and, when the
// engine's IRVerify mode says the check is due, runs the structural
// verifier over them. The decoder only rejects malformed framing; Verify
// closes the gap between "decoded" and "meaningful" before the
// statements reach sema and the executor. This matters most for blobs
// that crossed the wire from an untrusted client.
func (e *Engine) DecodeIR(blob []byte) (*ast.Script, error) {
	decoded, err := ir.Decode(blob)
	if err != nil {
		return nil, err
	}
	if e.irVerifyDue() {
		if err := ir.Verify(decoded); err != nil {
			e.met.noteIRVerifyFailure()
			return nil, err
		}
	}
	return decoded, nil
}

func (e *Engine) prepareIR(blob []byte) (*Prepared, error) {
	// Decode a private copy of the statements from the IR: decoded
	// strings are fresh allocations, so the handle cannot pin the
	// caller's script buffer (or the IR input slice).
	decoded, err := e.DecodeIR(blob)
	if err != nil {
		return nil, err
	}
	return e.prepareDecoded(blob, decoded.Stmts, nil)
}

// prepareDecoded builds a handle over statements decoded from blob. ids
// gives their observability identities; nil derives each from the
// statement's rendering.
func (e *Engine) prepareDecoded(blob []byte, stmts []ast.Stmt, ids []stmtIdent) (*Prepared, error) {
	if len(stmts) == 0 {
		return nil, fmt.Errorf("graql: cannot prepare an empty script")
	}
	p := &Prepared{blob: blob, stmts: stmts, ids: ids, ro: true}
	if ids == nil {
		p.ids = make([]stmtIdent, len(stmts))
	}
	for i, st := range stmts {
		if ids == nil {
			script := st.String()
			fp, norm := e.met.reg.FingerprintCached(script)
			p.ids[i] = stmtIdent{fp: fp, norm: norm, script: script}
		}
		script := p.ids[i].script
		if p.text != "" {
			p.text += "\n"
		}
		p.text += script
		if mutatesCatalog(st) {
			p.ro = false
		}
	}
	if p.ro {
		// Read-only script: run semantic analysis now, so unknown tables,
		// type errors and malformed patterns fail the prepare rather than
		// the first execute — and every cacheable plan is warm. Scripts
		// with writes skip this: their later statements may depend on
		// catalog objects the earlier ones create.
		e.Cat.RLock()
		defer e.Cat.RUnlock()
		run := e
		if e.plans != nil {
			// planSelect keys the cache on the accounting identity; give
			// it the prepared one so warm entries match later executes.
			c := *e
			run = &c
		}
		for i, st := range p.stmts {
			sel, ok := st.(*ast.Select)
			if !ok {
				continue
			}
			if run != e {
				run.acct = &stmtAcct{stmtIdent: p.ids[i]}
			}
			if _, err := run.planSelect(sel); err != nil {
				return nil, fmt.Errorf("statement %d: %w", i+1, err)
			}
		}
	}
	return p, nil
}

// mutatesCatalog reports whether executing the statement can commit a
// catalog mutation (and hence bump the epoch).
func mutatesCatalog(st ast.Stmt) bool {
	sel, ok := st.(*ast.Select)
	if !ok {
		return true // DDL, ingest, output, DML
	}
	return sel.Into.Kind != ast.IntoNone
}

// ExecPrepared executes a prepared handle, binding the script's %name%
// parameters. Results keep statement order, exactly like ExecScript on
// the original text.
func (e *Engine) ExecPrepared(p *Prepared, params map[string]value.Value) ([]Result, error) {
	return e.ExecPreparedContext(context.Background(), p, params)
}

// ExecPreparedContext is ExecPrepared bound to ctx.
func (e *Engine) ExecPreparedContext(ctx context.Context, p *Prepared, params map[string]value.Value) ([]Result, error) {
	return e.execPrepared(ctx, p, params, nil)
}

// execPrepared runs a prepared script's statements in order, stopping at
// the first failure with the results of the statements before it. slots
// are a text template hit's slot values (nil for a prepared handle).
func (e *Engine) execPrepared(ctx context.Context, p *Prepared, params map[string]value.Value, slots []value.Value) ([]Result, error) {
	run := e.WithContext(ctx)
	out := make([]Result, 0, len(p.stmts))
	for i, st := range p.stmts {
		if err := run.canceled(); err != nil {
			return out, fmt.Errorf("statement %d: %w", i+1, err)
		}
		id := p.ids[i]
		id.slots = slots
		r, err := run.execStmtID(st, params, &id)
		if err != nil {
			return out, fmt.Errorf("statement %d: %w", i+1, err)
		}
		out = append(out, r)
	}
	return out, nil
}
