package campaign

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode"
)

// The campaign DSL is a small block-structured text format in the spirit of
// the policy DSL (internal/policy). Grammar (comments run from '#' or '//'
// to end of line; WORD is a run of letters, digits, '_', '-', '.', '/'):
//
//	file      = "campaign" STRING "version" NUMBER "{" stmt* "}" .
//	stmt      = "seed" NUMBER | "regimes" wordList | generator .
//	generator = kind STRING "{" gstmt* "}" .
//	kind      = "mutate" | "flood" | "staged" .
//	gstmt     = "probe" ("on"|"off") | "regimes" wordList
//	          | "base" WORD | "attackers" wordList | "placements" wordList
//	          | "modes" wordList | "repeats" numList | "gaps" durList
//	          | "payloads" hexList | "pick" NUMBER
//	          | "id" NUMBER | "payload" HEX | "team" wordList
//	          | "rates" durList | "frames" numList | "threshold" NUMBER
//	          | "goal" WORD | stage .
//	stage     = "stage" STRING "{" sstmt* "}" .
//	sstmt     = "proceed" WORD | inject .
//	inject    = "inject" NUMBER [HEX] ["x" NUMBER] ["every" DUR] ["from" WORD] .
//
// Durations use Go syntax ("500us", "2ms"); payloads are bare even-length
// hex words ("EE01"). A document whose first non-space byte is '{' is
// instead decoded as the JSON form of Spec (the struct tags above).

type tokKind uint8

const (
	tEOF tokKind = iota + 1
	tWord
	tString
	tLBrace
	tRBrace
	tComma
)

func (k tokKind) String() string {
	switch k {
	case tEOF:
		return "end of input"
	case tWord:
		return "word"
	case tString:
		return "string"
	case tLBrace:
		return "'{'"
	case tRBrace:
		return "'}'"
	case tComma:
		return "','"
	default:
		return "invalid token"
	}
}

type tok struct {
	kind tokKind
	text string
	line int
}

// ParseError reports a campaign DSL syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

// Error implements error.
func (e *ParseError) Error() string {
	return fmt.Sprintf("campaign: line %d: %s", e.Line, e.Msg)
}

type lexer struct {
	src  string
	pos  int
	line int
}

func isWordRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == '.' || r == '/'
}

func (l *lexer) errf(format string, args ...any) *ParseError {
	return &ParseError{Line: l.line, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) next() (tok, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '#':
			l.skipLine()
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			l.skipLine()
		default:
			return l.lexToken()
		}
	}
	return tok{kind: tEOF, line: l.line}, nil
}

func (l *lexer) skipLine() {
	for l.pos < len(l.src) && l.src[l.pos] != '\n' {
		l.pos++
	}
}

func (l *lexer) lexToken() (tok, error) {
	c := l.src[l.pos]
	switch {
	case c == '{':
		l.pos++
		return tok{kind: tLBrace, line: l.line}, nil
	case c == '}':
		l.pos++
		return tok{kind: tRBrace, line: l.line}, nil
	case c == ',':
		l.pos++
		return tok{kind: tComma, line: l.line}, nil
	case c == '*':
		l.pos++
		return tok{kind: tWord, text: "*", line: l.line}, nil
	case c == '"':
		return l.lexString()
	default:
		if isWordRune(rune(c)) {
			return l.lexWord(), nil
		}
		return tok{}, l.errf("unexpected character %q", c)
	}
}

func (l *lexer) lexWord() tok {
	start := l.pos
	for l.pos < len(l.src) && isWordRune(rune(l.src[l.pos])) {
		l.pos++
	}
	return tok{kind: tWord, text: l.src[start:l.pos], line: l.line}
}

func (l *lexer) lexString() (tok, error) {
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case '"':
			l.pos++
			text := b.String()
			if err := validString("string literal", text); err != nil {
				return tok{}, l.errf("%v", err)
			}
			return tok{kind: tString, text: text, line: l.line}, nil
		case '\\':
			if l.pos+1 >= len(l.src) {
				return tok{}, l.errf("unterminated escape")
			}
			l.pos++
			switch esc := l.src[l.pos]; esc {
			case '"', '\\':
				b.WriteByte(esc)
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			default:
				return tok{}, l.errf("unknown escape \\%c", esc)
			}
			l.pos++
		case '\n':
			return tok{}, l.errf("unterminated string")
		default:
			b.WriteByte(c)
			l.pos++
		}
	}
	return tok{}, l.errf("unterminated string")
}

type parser struct {
	lex *lexer
	tok tok
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errf(format string, args ...any) *ParseError {
	return &ParseError{Line: p.tok.line, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(k tokKind) (tok, error) {
	if p.tok.kind != k {
		return tok{}, p.errf("expected %v, found %v", k, p.tok.kind)
	}
	t := p.tok
	return t, p.advance()
}

// keyword consumes the current word token and returns its text.
func (p *parser) word() (string, error) {
	t, err := p.expect(tWord)
	return t.text, err
}

func (p *parser) number() (uint64, error) {
	t, err := p.expect(tWord)
	if err != nil {
		return 0, err
	}
	v, perr := strconv.ParseUint(t.text, 0, 64)
	if perr != nil {
		return 0, p.errf("bad number %q", t.text)
	}
	return v, nil
}

func (p *parser) intIn(what string, max int) (int, error) {
	v, err := p.number()
	if err != nil {
		return 0, err
	}
	if v > uint64(max) {
		return 0, p.errf("%s %d exceeds %d", what, v, max)
	}
	return int(v), nil
}

func (p *parser) duration() (Duration, error) {
	t, err := p.expect(tWord)
	if err != nil {
		return 0, err
	}
	v, perr := time.ParseDuration(t.text)
	if perr != nil {
		return 0, p.errf("bad duration %q (use Go syntax, e.g. 500us)", t.text)
	}
	return Duration(v), nil
}

func (p *parser) hexWord() (HexBytes, error) {
	t, err := p.expect(tWord)
	if err != nil {
		return nil, err
	}
	v, perr := parseHex(t.text)
	if perr != nil {
		return nil, p.errf("bad hex payload %q", t.text)
	}
	return v, nil
}

// wordList parses WORD { "," WORD }.
func (p *parser) wordList() ([]string, error) {
	var out []string
	for {
		w, err := p.word()
		if err != nil {
			return nil, err
		}
		out = append(out, w)
		if p.tok.kind != tComma {
			return out, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
}

func (p *parser) numList(what string, max int) ([]int, error) {
	var out []int
	for {
		v, err := p.intIn(what, max)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		if p.tok.kind != tComma {
			return out, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
}

func (p *parser) durList() ([]Duration, error) {
	var out []Duration
	for {
		v, err := p.duration()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		if p.tok.kind != tComma {
			return out, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
}

func (p *parser) hexList() ([]HexBytes, error) {
	var out []HexBytes
	for {
		v, err := p.hexWord()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		if p.tok.kind != tComma {
			return out, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
}

// Parse reads a campaign definition — the DSL, or the JSON form when the
// first non-space byte is '{' — into a validated, canonicalised Spec.
func Parse(src string) (*Spec, error) {
	if t := strings.TrimLeftFunc(src, unicode.IsSpace); strings.HasPrefix(t, "{") {
		return parseJSON(src)
	}
	p := &parser{lex: &lexer{src: src, line: 1}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if w, err := p.word(); err != nil || w != "campaign" {
		if err != nil {
			return nil, err
		}
		return nil, p.errf("expected 'campaign', found %q", w)
	}
	name, err := p.expect(tString)
	if err != nil {
		return nil, err
	}
	if w, err := p.word(); err != nil || w != "version" {
		if err != nil {
			return nil, err
		}
		return nil, p.errf("expected 'version', found %q", w)
	}
	ver, err := p.number()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tLBrace); err != nil {
		return nil, err
	}
	sp := &Spec{Name: name.text, Version: ver}
	for p.tok.kind != tRBrace {
		if p.tok.kind == tEOF {
			return nil, p.errf("unexpected end of input: missing '}'")
		}
		kw, err := p.word()
		if err != nil {
			return nil, err
		}
		switch kw {
		case "seed":
			if sp.Seed, err = p.number(); err != nil {
				return nil, err
			}
		case "regimes":
			if sp.Regimes, err = p.wordList(); err != nil {
				return nil, err
			}
		case KindMutate, KindFlood, KindStaged:
			g, err := p.parseGenerator(kw)
			if err != nil {
				return nil, err
			}
			sp.Generators = append(sp.Generators, g)
		default:
			return nil, p.errf("unknown campaign statement %q", kw)
		}
	}
	if err := p.advance(); err != nil { // consume '}'
		return nil, err
	}
	if p.tok.kind != tEOF {
		return nil, p.errf("trailing input after campaign block")
	}
	sp.normalize()
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return sp, nil
}

func parseJSON(src string) (*Spec, error) {
	var sp Spec
	dec := json.NewDecoder(strings.NewReader(src))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("campaign: bad JSON spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("campaign: trailing content after JSON spec")
	}
	sp.normalize()
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return &sp, nil
}

func (p *parser) parseGenerator(kind string) (GeneratorSpec, error) {
	g := GeneratorSpec{Kind: kind}
	name, err := p.expect(tString)
	if err != nil {
		return g, err
	}
	g.Name = name.text
	if _, err := p.expect(tLBrace); err != nil {
		return g, err
	}
	for p.tok.kind != tRBrace {
		if p.tok.kind == tEOF {
			return g, p.errf("unexpected end of input in generator %q", g.Name)
		}
		kw, err := p.word()
		if err != nil {
			return g, err
		}
		switch kw {
		case "probe":
			w, err := p.word()
			if err != nil {
				return g, err
			}
			switch w {
			case "on":
				g.NoProbe = false
			case "off":
				g.NoProbe = true
			default:
				return g, p.errf("probe takes 'on' or 'off', found %q", w)
			}
		case "regimes":
			if g.Regimes, err = p.wordList(); err != nil {
				return g, err
			}
		case "base":
			if g.Base, err = p.word(); err != nil {
				return g, err
			}
		case "attackers":
			if g.Attackers, err = p.wordList(); err != nil {
				return g, err
			}
		case "placements":
			if g.Placements, err = p.wordList(); err != nil {
				return g, err
			}
		case "modes":
			if g.Modes, err = p.wordList(); err != nil {
				return g, err
			}
		case "repeats":
			if g.Repeats, err = p.numList("repeat", maxRepeat); err != nil {
				return g, err
			}
		case "gaps":
			if g.Gaps, err = p.durList(); err != nil {
				return g, err
			}
		case "payloads":
			if g.Payloads, err = p.hexList(); err != nil {
				return g, err
			}
		case "pick":
			if g.Pick, err = p.intIn("pick", 1<<20); err != nil {
				return g, err
			}
		case "id":
			v, err := p.number()
			if err != nil {
				return g, err
			}
			if v > 0x7FF {
				return g, p.errf("id 0x%X exceeds the standard 11-bit range", v)
			}
			g.ID = uint32(v)
		case "payload":
			if g.Payload, err = p.hexWord(); err != nil {
				return g, err
			}
		case "team":
			t, err := p.wordList()
			if err != nil {
				return g, err
			}
			g.Teams = append(g.Teams, t)
		case "rates":
			if g.Rates, err = p.durList(); err != nil {
				return g, err
			}
		case "frames":
			if g.Frames, err = p.numList("frames", maxFrames); err != nil {
				return g, err
			}
		case "threshold":
			if g.Threshold, err = p.intIn("threshold", 1<<20); err != nil {
				return g, err
			}
		case "goal":
			if g.Goal, err = p.word(); err != nil {
				return g, err
			}
		case "stage":
			st, err := p.parseStage()
			if err != nil {
				return g, err
			}
			g.Stages = append(g.Stages, st)
		default:
			return g, p.errf("unknown %s statement %q", kind, kw)
		}
	}
	return g, p.advance() // consume '}'
}

func (p *parser) parseStage() (StageSpec, error) {
	var st StageSpec
	name, err := p.expect(tString)
	if err != nil {
		return st, err
	}
	st.Name = name.text
	if _, err := p.expect(tLBrace); err != nil {
		return st, err
	}
	for p.tok.kind != tRBrace {
		if p.tok.kind == tEOF {
			return st, p.errf("unexpected end of input in stage %q", st.Name)
		}
		kw, err := p.word()
		if err != nil {
			return st, err
		}
		switch kw {
		case "proceed":
			if st.Proceed, err = p.word(); err != nil {
				return st, err
			}
		case "inject":
			inj, err := p.parseInject()
			if err != nil {
				return st, err
			}
			st.Injections = append(st.Injections, inj)
		default:
			return st, p.errf("unknown stage statement %q", kw)
		}
	}
	return st, p.advance() // consume '}'
}

// injectMarkers are the optional clause keywords of an inject statement; a
// word matching one of them is never consumed as the payload.
var injectMarkers = map[string]bool{"x": true, "every": true, "from": true}

func (p *parser) parseInject() (InjectionSpec, error) {
	var inj InjectionSpec
	id, err := p.number()
	if err != nil {
		return inj, err
	}
	if id > 0x7FF {
		return inj, p.errf("id 0x%X exceeds the standard 11-bit range", id)
	}
	inj.ID = uint32(id)
	// Optional payload: an even-length hex word that is not a clause marker
	// and not the start of the next statement.
	if p.tok.kind == tWord && !injectMarkers[p.tok.text] && p.tok.text != "inject" && p.tok.text != "proceed" {
		if v, err := parseHex(p.tok.text); err == nil {
			inj.Data = v
			if err := p.advance(); err != nil {
				return inj, err
			}
		}
	}
	for p.tok.kind == tWord && injectMarkers[p.tok.text] {
		marker := p.tok.text
		if err := p.advance(); err != nil {
			return inj, err
		}
		switch marker {
		case "x":
			if inj.Repeat, err = p.intIn("repeat", maxFrames); err != nil {
				return inj, err
			}
		case "every":
			if inj.Gap, err = p.duration(); err != nil {
				return inj, err
			}
		case "from":
			if inj.From, err = p.word(); err != nil {
				return inj, err
			}
		}
	}
	return inj, nil
}
