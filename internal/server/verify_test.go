package server_test

import (
	"context"
	"encoding/base64"
	"strings"
	"testing"

	"graql/internal/ast"
	"graql/internal/exec"
	"graql/internal/ir"
	"graql/internal/obs"
	"graql/internal/server"
)

// TestExecIRVerifiesBlob checks execir runs client-supplied IR through
// the engine's decode-and-verify helper, like prepare does: a blob that
// decodes but is structurally invalid (an update with no assignments)
// fails with a verify error instead of reaching the executor.
func TestExecIRVerifiesBlob(t *testing.T) {
	opts := exec.DefaultOptions()
	opts.IRVerify = exec.IRVerifyAlways
	opts.Obs = obs.New()
	srv := server.New(exec.New(opts), "")

	blob, err := ir.Encode(&ast.Script{Stmts: []ast.Stmt{&ast.Update{Table: "t"}}})
	if err != nil {
		t.Fatal(err)
	}
	resp := srv.Do(context.Background(), &server.Request{
		Op: "execir", IR: base64.StdEncoding.EncodeToString(blob),
	})
	if resp.OK || resp.Code != server.CodeBadRequest || !strings.Contains(resp.Error, "verify") {
		t.Fatalf("execir of a malformed blob: ok=%v code=%q error=%q, want a bad_request verify error",
			resp.OK, resp.Code, resp.Error)
	}
	if got := opts.Obs.Counter("graql_ir_verify_failures_total", "").Value(); got != 1 {
		t.Fatalf("graql_ir_verify_failures_total = %d, want 1", got)
	}
}

// TestIRMissingExpressionIsAnError checks a client blob whose select
// item has no expression is refused by the decoder itself, so it fails
// as a structured error even when the sampled verifier skips it (the
// statement could not even be rendered for its fingerprint).
func TestIRMissingExpressionIsAnError(t *testing.T) {
	opts := exec.DefaultOptions()
	opts.IRVerify = exec.IRVerifyOff
	opts.Obs = obs.New()
	srv := server.New(exec.New(opts), "")

	blob, err := ir.Encode(&ast.Script{Stmts: []ast.Stmt{
		&ast.Select{Items: []ast.SelectItem{{Alias: "x"}}, FromTable: "t"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	b64 := base64.StdEncoding.EncodeToString(blob)
	for _, op := range []string{"execir", "prepare"} {
		resp := srv.Do(context.Background(), &server.Request{Op: op, IR: b64})
		if resp.OK || !strings.Contains(resp.Error, "missing required expression") {
			t.Errorf("%s of a select item without expression: ok=%v code=%q error=%q",
				op, resp.OK, resp.Code, resp.Error)
		}
	}
}
