package rex

import (
	"fmt"
	"strings"
)

// Parse reconstructs a Regex from the dialect String renders, so learned
// conventions serialized to JSON round-trip into identical structured
// regexes. Only this package's output dialect is accepted — arbitrary
// regular expressions are rejected.
func Parse(src string) (*Regex, error) {
	s := src
	leftOpen := true
	if strings.HasPrefix(s, "^") {
		leftOpen = false
		s = s[1:]
	}
	if !strings.HasSuffix(s, "$") {
		return nil, fmt.Errorf("rex: parse %q: missing end anchor", src)
	}
	s = s[:len(s)-1]

	var toks []Token
	var lit strings.Builder
	flush := func() {
		if lit.Len() > 0 {
			toks = append(toks, Lit(lit.String()))
			lit.Reset()
		}
	}
	i := 0
	for i < len(s) {
		switch {
		case strings.HasPrefix(s[i:], `(\d+)`):
			flush()
			toks = append(toks, Capture())
			i += 5
		case strings.HasPrefix(s[i:], `([a-z]+)`):
			flush()
			toks = append(toks, CaptureAlpha())
			i += 8
		case strings.HasPrefix(s[i:], `\d+`):
			flush()
			toks = append(toks, ClassTok(ClassDigit))
			i += 3
		case strings.HasPrefix(s[i:], `[a-z]+`):
			flush()
			toks = append(toks, ClassTok(ClassAlpha))
			i += 6
		case strings.HasPrefix(s[i:], `[a-z\d]+`):
			flush()
			toks = append(toks, ClassTok(ClassAlnum))
			i += 8
		case strings.HasPrefix(s[i:], ".+"):
			flush()
			toks = append(toks, DotPlus())
			i += 2
		case strings.HasPrefix(s[i:], "[^"):
			end := findClassEnd(s, i+2)
			if end < 0 {
				return nil, fmt.Errorf("rex: parse %q: unterminated class at %d", src, i)
			}
			body := s[i+2 : end]
			// Store the set in render order, dash last and once, so a
			// hand-written "[^-0]+" parses to what its render "[^0-]+"
			// parses to. Rendered text already has that order.
			var chars []byte
			dash := false
			for j := 0; j < len(body); j++ {
				if body[j] == '\\' && j+1 < len(body) {
					j++
				}
				if body[j] == '-' {
					dash = true
					continue
				}
				chars = append(chars, body[j])
			}
			if dash {
				chars = append(chars, '-')
			}
			flush()
			toks = append(toks, Excl(string(chars)))
			i = end + 2
		case strings.HasPrefix(s[i:], "(?:"):
			end := findGroupEnd(s, i+3)
			if end < 0 {
				return nil, fmt.Errorf("rex: parse %q: unterminated group at %d", src, i)
			}
			body := s[i+3 : end]
			alts, err := splitAlts(body)
			if err != nil {
				return nil, fmt.Errorf("rex: parse %q: %w", src, err)
			}
			opt := false
			next := end + 1
			if next < len(s) && s[next] == '?' {
				opt = true
				next++
			}
			flush()
			toks = append(toks, Alt(opt, alts...))
			i = next
		case s[i] == '\\':
			if i+1 >= len(s) {
				return nil, fmt.Errorf("rex: parse %q: trailing backslash", src)
			}
			lit.WriteByte(s[i+1])
			i += 2
		case s[i] == '(' || s[i] == ')' || s[i] == '[' || s[i] == ']' ||
			s[i] == '^' || s[i] == '$' || s[i] == '+' || s[i] == '*' ||
			s[i] == '?' || s[i] == '|' || s[i] == '{' || s[i] == '}':
			return nil, fmt.Errorf("rex: parse %q: unexpected metacharacter %q at %d", src, s[i], i)
		default:
			lit.WriteByte(s[i])
			i++
		}
	}
	flush()
	return build(leftOpen, toks)
}

// findClassEnd returns the index of the "]+" closing the exclusion
// class whose body starts at i, skipping escaped characters; -1 when
// unterminated.
func findClassEnd(s string, i int) int {
	for ; i+1 < len(s); i++ {
		switch {
		case s[i] == '\\':
			i++
		case s[i] == ']' && s[i+1] == '+':
			return i
		}
	}
	return -1
}

// findGroupEnd returns the index of the ')' closing the group whose body
// starts at i, skipping escaped characters; -1 when unterminated.
func findGroupEnd(s string, i int) int {
	for ; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case ')':
			return i
		}
	}
	return -1
}

// splitAlts splits an alternation body on unescaped '|' and unescapes the
// alternatives.
func splitAlts(body string) ([]string, error) {
	var alts []string
	var cur strings.Builder
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '\\':
			if i+1 >= len(body) {
				return nil, fmt.Errorf("trailing backslash in alternation")
			}
			cur.WriteByte(body[i+1])
			i++
		case '|':
			alts = append(alts, cur.String())
			cur.Reset()
		default:
			cur.WriteByte(body[i])
		}
	}
	alts = append(alts, cur.String())
	return alts, nil
}
