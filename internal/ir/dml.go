package ir

import (
	"graql/internal/ast"
	"graql/internal/expr"
)

// DML statement codecs (IR version 3). Shapes mirror the AST exactly so
// Decode(Encode(s)) round-trips; spans are not serialised (IR-decoded
// statements carry zero spans, same as every other statement form).

func (w *writer) insertStmt(s *ast.Insert) error {
	w.u8(tagInsert)
	w.bool_(s.Explain)
	w.bool_(s.Analyze)
	w.str(s.Table)
	w.uvarint(uint64(len(s.Cols)))
	for _, c := range s.Cols {
		w.str(c)
	}
	w.uvarint(uint64(len(s.Rows)))
	for _, row := range s.Rows {
		w.uvarint(uint64(len(row)))
		for _, e := range row {
			if err := w.expr(e); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *reader) insertStmt() (*ast.Insert, error) {
	s := &ast.Insert{}
	s.Explain = r.bool_()
	s.Analyze = r.bool_()
	s.Table = r.str()
	nCols := r.uvarint()
	for i := uint64(0); i < nCols && r.err == nil; i++ {
		s.Cols = append(s.Cols, r.str())
	}
	nRows := r.uvarint()
	for i := uint64(0); i < nRows && r.err == nil; i++ {
		nVals := r.uvarint()
		var tuple []expr.Expr
		for j := uint64(0); j < nVals && r.err == nil; j++ {
			e, err := r.reqExpr()
			if err != nil {
				return nil, err
			}
			tuple = append(tuple, e)
		}
		s.Rows = append(s.Rows, tuple)
	}
	return s, r.err
}

func (w *writer) updateStmt(s *ast.Update) error {
	w.u8(tagUpdate)
	w.bool_(s.Explain)
	w.bool_(s.Analyze)
	w.str(s.Table)
	w.uvarint(uint64(len(s.Sets)))
	for _, c := range s.Sets {
		w.str(c.Col)
		if err := w.expr(c.E); err != nil {
			return err
		}
	}
	return w.expr(s.Where)
}

func (r *reader) updateStmt() (*ast.Update, error) {
	s := &ast.Update{}
	s.Explain = r.bool_()
	s.Analyze = r.bool_()
	s.Table = r.str()
	n := r.uvarint()
	for i := uint64(0); i < n && r.err == nil; i++ {
		col := r.str()
		e, err := r.reqExpr()
		if err != nil {
			return nil, err
		}
		s.Sets = append(s.Sets, ast.SetClause{Col: col, E: e})
	}
	var err error
	s.Where, err = r.expr()
	return s, err
}

func (w *writer) deleteStmt(s *ast.Delete) error {
	w.u8(tagDelete)
	w.bool_(s.Explain)
	w.bool_(s.Analyze)
	w.str(s.Table)
	return w.expr(s.Where)
}

func (r *reader) deleteStmt() (*ast.Delete, error) {
	s := &ast.Delete{}
	s.Explain = r.bool_()
	s.Analyze = r.bool_()
	s.Table = r.str()
	var err error
	s.Where, err = r.expr()
	return s, err
}
