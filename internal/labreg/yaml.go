package labreg

// A hand-rolled parser for the YAML subset lab configs use. The repo
// is dependency-free, so rather than vendoring a YAML library this
// accepts exactly the constructs the examples need — block mappings,
// block sequences, flow lists/maps on one line, quoted and plain
// scalars, comments — and rejects everything else loudly. The parsed
// tree is handed to encoding/json for the strict typed decode, so
// YAML and JSON configs go through one schema gate.
//
// Deliberately unsupported: anchors/aliases, tags, multi-document
// streams, block scalars (| and >), flow constructs spanning lines,
// and tabs for indentation. A config that needs those should be JSON.

import (
	"fmt"
	"strconv"
	"strings"
)

// parseYAML parses src into the json-ready tree: map[string]any,
// []any, string, float64, bool, nil.
func parseYAML(src []byte) (any, error) {
	lines, err := splitYAMLLines(string(src))
	if err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("yaml: empty document")
	}
	p := &yamlParser{lines: lines}
	doc, err := p.parseBlock(lines[0].indent)
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.lines) {
		return nil, fmt.Errorf("yaml line %d: content outside the document block (indentation decreased below the root?)", p.lines[p.pos].n)
	}
	return doc, nil
}

type yamlLine struct {
	n      int // 1-based source line
	indent int
	text   string // content with indentation and trailing comment stripped
}

// splitYAMLLines strips comments and blank lines and measures
// indentation. Tabs in indentation are an error (as in real YAML).
func splitYAMLLines(src string) ([]yamlLine, error) {
	var out []yamlLine
	for i, raw := range strings.Split(src, "\n") {
		line := strings.TrimRight(raw, " \r")
		indent := 0
		for indent < len(line) && line[indent] == ' ' {
			indent++
		}
		if indent < len(line) && line[indent] == '\t' {
			return nil, fmt.Errorf("yaml line %d: tab in indentation", i+1)
		}
		text := stripComment(line[indent:])
		text = strings.TrimRight(text, " ")
		if text == "" {
			continue
		}
		if text == "---" && len(out) == 0 {
			continue // single leading document marker is tolerated
		}
		out = append(out, yamlLine{n: i + 1, indent: indent, text: text})
	}
	return out, nil
}

// stripComment removes a trailing " # ..." comment, respecting quotes.
func stripComment(s string) string {
	inSingle, inDouble := false, false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\'' && !inDouble:
			inSingle = !inSingle
		case c == '"' && !inSingle:
			if !inDouble || i == 0 || s[i-1] != '\\' {
				inDouble = !inDouble
			}
		case c == '#' && !inSingle && !inDouble:
			// A comment begins at line start or after whitespace.
			if i == 0 || s[i-1] == ' ' {
				return s[:i]
			}
		}
	}
	return s
}

type yamlParser struct {
	lines []yamlLine
	pos   int
}

// parseBlock parses the mapping or sequence whose first line sits at
// exactly indent.
func (p *yamlParser) parseBlock(indent int) (any, error) {
	if p.pos >= len(p.lines) {
		return nil, fmt.Errorf("yaml: unexpected end of document")
	}
	line := p.lines[p.pos]
	if line.indent != indent {
		return nil, fmt.Errorf("yaml line %d: expected indentation %d, got %d", line.n, indent, line.indent)
	}
	if line.text == "-" || strings.HasPrefix(line.text, "- ") {
		return p.parseSequence(indent)
	}
	return p.parseMapping(indent)
}

func (p *yamlParser) parseMapping(indent int) (any, error) {
	out := map[string]any{}
	for p.pos < len(p.lines) {
		line := p.lines[p.pos]
		if line.indent < indent {
			break
		}
		if line.indent > indent {
			return nil, fmt.Errorf("yaml line %d: unexpected indentation (no key opened a nested block)", line.n)
		}
		if line.text == "-" || strings.HasPrefix(line.text, "- ") {
			return nil, fmt.Errorf("yaml line %d: sequence item inside a mapping", line.n)
		}
		key, rest, err := splitKey(line.text, line.n)
		if err != nil {
			return nil, err
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("yaml line %d: duplicate key %q", line.n, key)
		}
		p.pos++
		if rest != "" {
			val, err := parseFlowScalar(rest, line.n)
			if err != nil {
				return nil, err
			}
			out[key] = val
			continue
		}
		// Empty value: either a nested block follows, or the value is null.
		if p.pos < len(p.lines) && p.lines[p.pos].indent > indent {
			val, err := p.parseBlock(p.lines[p.pos].indent)
			if err != nil {
				return nil, err
			}
			out[key] = val
			continue
		}
		out[key] = nil
	}
	return out, nil
}

func (p *yamlParser) parseSequence(indent int) (any, error) {
	out := []any{}
	for p.pos < len(p.lines) {
		line := p.lines[p.pos]
		if line.indent < indent {
			break
		}
		if line.indent > indent {
			return nil, fmt.Errorf("yaml line %d: unexpected indentation inside sequence", line.n)
		}
		if line.text != "-" && !strings.HasPrefix(line.text, "- ") {
			break
		}
		rest := strings.TrimPrefix(strings.TrimPrefix(line.text, "-"), " ")
		if rest == "" {
			// "-" alone: the item is the nested block on following lines.
			p.pos++
			if p.pos >= len(p.lines) || p.lines[p.pos].indent <= indent {
				out = append(out, nil)
				continue
			}
			item, err := p.parseBlock(p.lines[p.pos].indent)
			if err != nil {
				return nil, err
			}
			out = append(out, item)
			continue
		}
		if isInlineMapStart(rest) {
			// "- key: value" opens a mapping whose keys align with the
			// position of `key` on this line; rewrite the current line as
			// that first key and let parseMapping consume it and its
			// siblings.
			itemIndent := indent + (len(line.text) - len(rest))
			p.lines[p.pos] = yamlLine{n: line.n, indent: itemIndent, text: rest}
			item, err := p.parseMapping(itemIndent)
			if err != nil {
				return nil, err
			}
			out = append(out, item)
			continue
		}
		p.pos++
		val, err := parseFlowScalar(rest, line.n)
		if err != nil {
			return nil, err
		}
		out = append(out, val)
	}
	return out, nil
}

// isInlineMapStart reports whether a sequence item's inline content
// begins a mapping ("name: x") rather than a scalar ("just text", or a
// quoted/flow value).
func isInlineMapStart(s string) bool {
	if s == "" || s[0] == '"' || s[0] == '\'' || s[0] == '[' || s[0] == '{' {
		return false
	}
	_, _, err := splitKey(s, 0)
	return err == nil
}

// splitKey splits "key: value" (or "key:") into key and raw value.
func splitKey(s string, n int) (key, rest string, err error) {
	inSingle, inDouble := false, false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\'' && !inDouble:
			inSingle = !inSingle
		case c == '"' && !inSingle:
			inDouble = !inDouble
		case c == ':' && !inSingle && !inDouble:
			if i+1 < len(s) && s[i+1] != ' ' {
				continue // "a:b" is a plain scalar character, not a key
			}
			key = strings.TrimSpace(s[:i])
			rest = strings.TrimSpace(s[i+1:])
			if key == "" {
				return "", "", fmt.Errorf("yaml line %d: empty mapping key", n)
			}
			if unq, uerr := unquote(key); uerr == nil {
				key = unq
			}
			return key, rest, nil
		}
	}
	return "", "", fmt.Errorf("yaml line %d: expected \"key: value\", got %q", n, s)
}

// parseFlowScalar parses an inline value: a flow list, a flow map, or
// a scalar.
func parseFlowScalar(s string, n int) (any, error) {
	s = strings.TrimSpace(s)
	switch {
	case strings.HasPrefix(s, "["):
		if !strings.HasSuffix(s, "]") {
			return nil, fmt.Errorf("yaml line %d: flow list must close on the same line", n)
		}
		items, err := splitFlow(s[1:len(s)-1], n)
		if err != nil {
			return nil, err
		}
		out := []any{}
		for _, item := range items {
			v, err := parseFlowScalar(item, n)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	case strings.HasPrefix(s, "{"):
		if !strings.HasSuffix(s, "}") {
			return nil, fmt.Errorf("yaml line %d: flow map must close on the same line", n)
		}
		items, err := splitFlow(s[1:len(s)-1], n)
		if err != nil {
			return nil, err
		}
		out := map[string]any{}
		for _, item := range items {
			key, rest, err := splitKey(item, n)
			if err != nil {
				// Flow maps also allow "key:value" without the space.
				k, r, ok := strings.Cut(item, ":")
				if !ok {
					return nil, err
				}
				key, rest = strings.TrimSpace(k), strings.TrimSpace(r)
				if key == "" {
					return nil, err
				}
				if unq, uerr := unquote(key); uerr == nil {
					key = unq
				}
			}
			if _, dup := out[key]; dup {
				return nil, fmt.Errorf("yaml line %d: duplicate key %q", n, key)
			}
			v, err := parseFlowScalar(rest, n)
			if err != nil {
				return nil, err
			}
			out[key] = v
		}
		return out, nil
	default:
		return parseScalar(s, n)
	}
}

// splitFlow splits flow-collection content on top-level commas.
func splitFlow(s string, n int) ([]string, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []string
	depth, start := 0, 0
	inSingle, inDouble := false, false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '\'' && !inDouble:
			inSingle = !inSingle
		case c == '"' && !inSingle:
			inDouble = !inDouble
		case inSingle || inDouble:
		case c == '[' || c == '{':
			depth++
		case c == ']' || c == '}':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("yaml line %d: unbalanced flow brackets", n)
			}
		case c == ',' && depth == 0:
			out = append(out, strings.TrimSpace(s[start:i]))
			start = i + 1
		}
	}
	if depth != 0 || inSingle || inDouble {
		return nil, fmt.Errorf("yaml line %d: unterminated flow collection", n)
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out, nil
}

// parseScalar resolves a plain or quoted scalar.
func parseScalar(s string, n int) (any, error) {
	switch s {
	case "", "~", "null", "Null", "NULL":
		return nil, nil
	case "true", "True", "TRUE":
		return true, nil
	case "false", "False", "FALSE":
		return false, nil
	}
	if s[0] == '"' || s[0] == '\'' {
		v, err := unquote(s)
		if err != nil {
			return nil, fmt.Errorf("yaml line %d: %v", n, err)
		}
		return v, nil
	}
	// Numbers become float64 — the same representation encoding/json
	// produces, so the two config syntaxes are indistinguishable
	// downstream.
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		return v, nil
	}
	return s, nil
}

// unquote resolves 'single' (literal, a doubled quote escapes a quote)
// and "double" (Go-style escapes) quoted strings.
func unquote(s string) (string, error) {
	if len(s) >= 2 && s[0] == '\'' && s[len(s)-1] == '\'' {
		inner := s[1 : len(s)-1]
		if strings.Contains(strings.ReplaceAll(inner, "''", ""), "'") {
			return "", fmt.Errorf("stray quote in %q", s)
		}
		return strings.ReplaceAll(inner, "''", "'"), nil
	}
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		v, err := strconv.Unquote(s)
		if err != nil {
			return "", fmt.Errorf("bad double-quoted scalar %s: %v", s, err)
		}
		return v, nil
	}
	if s != "" && (s[0] == '"' || s[0] == '\'') {
		return "", fmt.Errorf("unterminated quoted scalar %q", s)
	}
	return s, nil
}
