package sqlparse

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
)

// ErrUnknownFunction reports a function call in a SELECT list that is
// not one of the supported aggregates. It is typed so callers (and the
// parser-rejection tests) can match it with errors.Is.
var ErrUnknownFunction = errors.New("sqlparse: unknown function")

// ErrAggregateOrderBy reports ORDER BY applied to a bare aggregate
// select list. A single-group aggregate yields one row, so an ORDER BY
// there is meaningless; rejecting it is MySQL-compatible enough and far
// better than silently dropping the clause.
var ErrAggregateOrderBy = errors.New("sqlparse: ORDER BY cannot be applied to an aggregate select list")

// Parser is a recursive-descent parser over the token stream.
type Parser struct {
	toks []Token
	pos  int
}

// Parse parses a single SQL statement.
func Parse(src string) (Statement, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	return parseTokens(toks)
}

// ParseDigest is Parse and Digest from one lex pass: it returns what
// Parse(src) returns, and Digest(src) beside it whether or not src
// parses, so a failed statement is never lexed again for its digest.
// It lexes into a pooled token buffer, so in steady state the lex
// allocates nothing.
func ParseDigest(src string) (Statement, string, error) {
	buf := tokenBufs.Get().(*[]Token)
	defer releaseTokens(buf)
	toks, err := lexInto((*buf)[:0], src)
	*buf = toks
	if err != nil {
		return nil, fallbackDigest(src), err
	}
	stmt, err := parseTokens(toks)
	return stmt, renderDigest(toks, len(src)), err
}

// tokenBufs holds ParseDigest's token buffers. Nothing it returns keeps
// a token — the AST and the digest hold strings, never the slice — so a
// buffer is free once both are built.
var tokenBufs = sync.Pool{New: func() any { return new([]Token) }}

// maxPooledTokens bounds the buffers tokenBufs keeps: a buffer grown by
// an outsized statement is left to the collector.
const maxPooledTokens = 1 << 12

// releaseTokens clears buf and hands it back to tokenBufs. The clearing
// drops the token texts, substrings of the statement, so an idle buffer
// keeps no query text alive.
func releaseTokens(buf *[]Token) {
	if cap(*buf) > maxPooledTokens {
		return
	}
	clear(*buf)
	*buf = (*buf)[:0]
	tokenBufs.Put(buf)
}

// parseTokens parses one statement from toks, which end in TokEOF.
func parseTokens(toks []Token) (Statement, error) {
	p := &Parser{toks: toks}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	// Allow a trailing semicolon.
	if p.peek().Kind == TokSymbol && p.peek().Text == ";" {
		p.pos++
	}
	if p.peek().Kind != TokEOF {
		return nil, fmt.Errorf("sqlparse: trailing input at offset %d: %q", p.peek().Pos, p.peek().Text)
	}
	return stmt, nil
}

func (p *Parser) peek() Token { return p.toks[p.pos] }

func (p *Parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *Parser) expectKeyword(kw string) error {
	t := p.next()
	if t.Kind != TokKeyword || t.Text != kw {
		return fmt.Errorf("sqlparse: expected %s at offset %d, got %q", kw, t.Pos, t.Text)
	}
	return nil
}

func (p *Parser) expectSymbol(sym string) error {
	t := p.next()
	if t.Kind != TokSymbol || t.Text != sym {
		return fmt.Errorf("sqlparse: expected %q at offset %d, got %q", sym, t.Pos, t.Text)
	}
	return nil
}

func (p *Parser) expectIdent() (string, error) {
	t := p.next()
	if t.Kind != TokIdent {
		return "", fmt.Errorf("sqlparse: expected identifier at offset %d, got %q", t.Pos, t.Text)
	}
	return t.Text, nil
}

func (p *Parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.Kind != TokKeyword {
		return nil, fmt.Errorf("sqlparse: expected statement keyword at offset %d, got %q", t.Pos, t.Text)
	}
	switch t.Text {
	case "SELECT":
		return p.parseSelect()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "CREATE":
		return p.parseCreate()
	case "DROP":
		return p.parseDrop()
	case "SET":
		return p.parseSetTxn()
	case "BEGIN":
		p.next()
		return &TxnControl{Op: TxnBegin}, nil
	case "COMMIT":
		p.next()
		return &TxnControl{Op: TxnCommit}, nil
	case "ROLLBACK":
		p.next()
		return &TxnControl{Op: TxnRollback}, nil
	case "EXPLAIN":
		return p.parseExplain()
	case "ANALYZE":
		return p.parseAnalyze()
	default:
		return nil, fmt.Errorf("sqlparse: unsupported statement %q", t.Text)
	}
}

// parseExplain parses EXPLAIN [ANALYZE] <statement>. EXPLAIN does not
// nest.
func (p *Parser) parseExplain() (Statement, error) {
	p.next() // EXPLAIN
	analyze := false
	if t := p.peek(); t.Kind == TokKeyword && t.Text == "ANALYZE" {
		p.next()
		analyze = true
	}
	if t := p.peek(); t.Kind == TokKeyword && t.Text == "EXPLAIN" {
		return nil, fmt.Errorf("sqlparse: EXPLAIN cannot be nested (offset %d)", t.Pos)
	}
	inner, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	return &Explain{Stmt: inner, Analyze: analyze}, nil
}

// parseDrop parses DROP TABLE <name>.
func (p *Parser) parseDrop() (Statement, error) {
	p.next() // DROP
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	return &DropTable{Table: name}, nil
}

// parseSetTxn parses SET TRANSACTION READ ONLY | READ WRITE (the
// statement-scoped MySQL form: it applies to the next BEGIN).
func (p *Parser) parseSetTxn() (Statement, error) {
	p.next() // SET
	if err := p.expectKeyword("TRANSACTION"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("READ"); err != nil {
		return nil, err
	}
	t := p.next()
	if t.Kind == TokKeyword && t.Text == "ONLY" {
		return &SetTxn{ReadOnly: true}, nil
	}
	if t.Kind == TokKeyword && t.Text == "WRITE" {
		return &SetTxn{}, nil
	}
	return nil, fmt.Errorf("sqlparse: expected ONLY or WRITE at offset %d, got %q", t.Pos, t.Text)
}

// parseAnalyze parses ANALYZE TABLE <name>.
func (p *Parser) parseAnalyze() (Statement, error) {
	p.next() // ANALYZE
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	return &AnalyzeTable{Table: name}, nil
}

func (p *Parser) parseCreate() (Statement, error) {
	p.next() // CREATE
	if p.peek().Kind == TokKeyword && p.peek().Text == "INDEX" {
		return p.parseCreateIndex()
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var cols []ColumnDef
	for {
		colName, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		t := p.next()
		if t.Kind != TokKeyword || (t.Text != "INT" && t.Text != "TEXT") {
			return nil, fmt.Errorf("sqlparse: expected column type at offset %d, got %q", t.Pos, t.Text)
		}
		col := ColumnDef{Name: colName}
		if t.Text == "TEXT" {
			col.Type = TypeText
		}
		if p.peek().Kind == TokKeyword && p.peek().Text == "PRIMARY" {
			p.next()
			if err := p.expectKeyword("KEY"); err != nil {
				return nil, err
			}
			col.PrimaryKey = true
		}
		cols = append(cols, col)
		t = p.next()
		if t.Kind == TokSymbol && t.Text == "," {
			continue
		}
		if t.Kind == TokSymbol && t.Text == ")" {
			break
		}
		return nil, fmt.Errorf("sqlparse: expected ',' or ')' at offset %d, got %q", t.Pos, t.Text)
	}
	return &CreateTable{Table: name, Columns: cols}, nil
}

func (p *Parser) parseCreateIndex() (Statement, error) {
	p.next() // INDEX
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("ON"); err != nil {
		return nil, err
	}
	table, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	col, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &CreateIndex{Name: name, Table: table, Column: col}, nil
}

func (p *Parser) parseSelect() (Statement, error) {
	p.next() // SELECT
	var exprs []SelectExpr
	for {
		e, err := p.parseSelectExpr()
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, e)
		if p.peek().Kind == TokSymbol && p.peek().Text == "," {
			p.next()
			continue
		}
		break
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	sel := &Select{Exprs: exprs, Table: table, Limit: -1}
	if p.peek().Kind == TokKeyword && p.peek().Text == "WHERE" {
		p.next()
		w, err := p.parseWhere()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.peek().Kind == TokKeyword && p.peek().Text == "ORDER" {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		sel.OrderBy = col
		if p.peek().Kind == TokKeyword && (p.peek().Text == "DESC" || p.peek().Text == "ASC") {
			sel.Desc = p.next().Text == "DESC"
		}
		for _, e := range exprs {
			if e.Agg != AggNone {
				return nil, fmt.Errorf("%w (ORDER BY %s over %s)", ErrAggregateOrderBy, col, e.SQL())
			}
		}
	}
	if p.peek().Kind == TokKeyword && p.peek().Text == "LIMIT" {
		p.next()
		t := p.next()
		if t.Kind != TokNumber {
			return nil, fmt.Errorf("sqlparse: expected LIMIT count at offset %d", t.Pos)
		}
		n, err := strconv.Atoi(t.Text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("sqlparse: bad LIMIT %q", t.Text)
		}
		sel.Limit = n
	}
	return sel, nil
}

// parseTableName accepts ident or ident.ident (schema-qualified, as in
// information_schema.processlist) and returns the joined name.
func (p *Parser) parseTableName() (string, error) {
	name, err := p.expectIdent()
	if err != nil {
		return "", err
	}
	if p.peek().Kind == TokSymbol && p.peek().Text == "." {
		p.next()
		rest, err := p.expectIdent()
		if err != nil {
			return "", err
		}
		name = name + "." + rest
	}
	return name, nil
}

func (p *Parser) parseSelectExpr() (SelectExpr, error) {
	t := p.peek()
	if t.Kind == TokSymbol && t.Text == "*" {
		p.next()
		return SelectExpr{Column: "*"}, nil
	}
	if t.Kind == TokKeyword && (t.Text == "COUNT" || t.Text == "SUM") {
		p.next()
		agg := AggCount
		if t.Text == "SUM" {
			agg = AggSum
		}
		if err := p.expectSymbol("("); err != nil {
			return SelectExpr{}, err
		}
		var col string
		if p.peek().Kind == TokSymbol && p.peek().Text == "*" {
			p.next()
			col = "*"
		} else {
			c, err := p.expectIdent()
			if err != nil {
				return SelectExpr{}, err
			}
			col = c
		}
		if err := p.expectSymbol(")"); err != nil {
			return SelectExpr{}, err
		}
		return SelectExpr{Agg: agg, Column: col}, nil
	}
	col, err := p.expectIdent()
	if err != nil {
		return SelectExpr{}, err
	}
	// An identifier followed by '(' is a function call we don't
	// implement: reject it here with a typed error instead of failing
	// later with a misleading "expected FROM".
	if nt := p.peek(); nt.Kind == TokSymbol && nt.Text == "(" {
		return SelectExpr{}, fmt.Errorf("%w %q at offset %d (supported aggregates: COUNT, SUM)",
			ErrUnknownFunction, col, t.Pos)
	}
	return SelectExpr{Column: col}, nil
}

func (p *Parser) parseWhere() (Where, error) {
	var w Where
	for {
		var err error
		if w, err = p.parsePredicate(w); err != nil {
			return nil, err
		}
		if p.peek().Kind == TokKeyword && p.peek().Text == "AND" {
			p.next()
			continue
		}
		return w, nil
	}
}

// parsePredicate parses one predicate and appends it to w; BETWEEN
// expands to two predicates.
func (p *Parser) parsePredicate(w Where) (Where, error) {
	col, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if p.peek().Kind == TokKeyword && p.peek().Text == "BETWEEN" {
		p.next()
		lo, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		return append(w,
			Predicate{Column: col, Op: OpGe, Arg: lo},
			Predicate{Column: col, Op: OpLe, Arg: hi}), nil
	}
	t := p.next()
	if t.Kind != TokSymbol {
		return nil, fmt.Errorf("sqlparse: expected comparison operator at offset %d, got %q", t.Pos, t.Text)
	}
	var op CompareOp
	switch t.Text {
	case "=":
		op = OpEq
	case "!=":
		op = OpNe
	case "<":
		op = OpLt
	case "<=":
		op = OpLe
	case ">":
		op = OpGt
	case ">=":
		op = OpGe
	default:
		return nil, fmt.Errorf("sqlparse: unknown operator %q at offset %d", t.Text, t.Pos)
	}
	v, err := p.parseValue()
	if err != nil {
		return nil, err
	}
	return append(w, Predicate{Column: col, Op: op, Arg: v}), nil
}

func (p *Parser) parseValue() (Value, error) {
	t := p.next()
	switch t.Kind {
	case TokNumber:
		n, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("sqlparse: bad number %q at offset %d", t.Text, t.Pos)
		}
		return IntValue(n), nil
	case TokString:
		return StrValue(t.Text), nil
	default:
		return Value{}, fmt.Errorf("sqlparse: expected literal at offset %d, got %q", t.Pos, t.Text)
	}
}

func (p *Parser) parseInsert() (Statement, error) {
	p.next() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		ins.Columns = append(ins.Columns, col)
		t := p.next()
		if t.Kind == TokSymbol && t.Text == "," {
			continue
		}
		if t.Kind == TokSymbol && t.Text == ")" {
			break
		}
		return nil, fmt.Errorf("sqlparse: expected ',' or ')' at offset %d", t.Pos)
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Value
		for {
			v, err := p.parseValue()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			t := p.next()
			if t.Kind == TokSymbol && t.Text == "," {
				continue
			}
			if t.Kind == TokSymbol && t.Text == ")" {
				break
			}
			return nil, fmt.Errorf("sqlparse: expected ',' or ')' at offset %d", t.Pos)
		}
		if len(row) != len(ins.Columns) {
			return nil, fmt.Errorf("sqlparse: tuple has %d values for %d columns", len(row), len(ins.Columns))
		}
		ins.Rows = append(ins.Rows, row)
		if p.peek().Kind == TokSymbol && p.peek().Text == "," {
			p.next()
			continue
		}
		return ins, nil
	}
}

func (p *Parser) parseUpdate() (Statement, error) {
	p.next() // UPDATE
	table, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	upd := &Update{Table: table}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		v, err := p.parseValue()
		if err != nil {
			return nil, err
		}
		upd.Set = append(upd.Set, Assignment{Column: col, Value: v})
		if p.peek().Kind == TokSymbol && p.peek().Text == "," {
			p.next()
			continue
		}
		break
	}
	if p.peek().Kind == TokKeyword && p.peek().Text == "WHERE" {
		p.next()
		w, err := p.parseWhere()
		if err != nil {
			return nil, err
		}
		upd.Where = w
	}
	return upd, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	p.next() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.parseTableName()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: table}
	if p.peek().Kind == TokKeyword && p.peek().Text == "WHERE" {
		p.next()
		w, err := p.parseWhere()
		if err != nil {
			return nil, err
		}
		del.Where = w
	}
	return del, nil
}
