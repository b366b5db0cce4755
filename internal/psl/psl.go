// Package psl implements the Mozilla Public Suffix List matching algorithm.
//
// The study normalizes every top list to PSL-defined registrable domains
// (Section 4.2): entries are grouped by eTLD+1 and each group keeps its
// smallest (most popular) rank. This package provides the matcher that the
// normalization is built on: rule parsing in the upstream file format,
// wildcard ("*.ck") and exception ("!www.ck") rules, and the default "*"
// rule for unlisted TLDs, per the algorithm published at publicsuffix.org.
package psl

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"

	"toplists/internal/domain"
)

// RuleKind distinguishes the three kinds of PSL rules.
type RuleKind uint8

const (
	// Normal is a plain suffix rule such as "co.uk".
	Normal RuleKind = iota
	// Wildcard is a rule such as "*.ck" matching any single label under it.
	Wildcard
	// Exception is a rule such as "!www.ck" carving a hole in a wildcard.
	Exception
)

// node is a trie node keyed by reversed labels.
type node struct {
	children map[string]*node
	// terminal rule kinds present at this node.
	normal    bool
	wildcard  bool // a "*" child rule rooted here
	exception bool
}

// List is a compiled Public Suffix List.
type List struct {
	root  node
	rules int
}

// ErrNoRules is returned by Parse when the input contains no rules.
var ErrNoRules = errors.New("psl: no rules in input")

// Parse reads rules in the upstream publicsuffix.org file format: one rule
// per line, "//" comments, blank lines ignored. Rules are normalized to
// lowercase.
func Parse(r io.Reader) (*List, error) {
	l := &List{}
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "//") {
			continue
		}
		// The upstream file terminates rules at the first whitespace.
		if i := strings.IndexAny(text, " \t"); i >= 0 {
			text = text[:i]
		}
		if err := l.Add(text); err != nil {
			return nil, fmt.Errorf("psl: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if l.rules == 0 {
		return nil, ErrNoRules
	}
	return l, nil
}

// MustParse is Parse for static inputs; it panics on error.
func MustParse(s string) *List {
	l, err := Parse(strings.NewReader(s))
	if err != nil {
		panic(err)
	}
	return l
}

// Add inserts a single rule given in PSL text form (possibly with "!" or
// "*." markers).
func (l *List) Add(rule string) error {
	kind := Normal
	switch {
	case strings.HasPrefix(rule, "!"):
		kind = Exception
		rule = rule[1:]
	case strings.HasPrefix(rule, "*."):
		kind = Wildcard
		rule = rule[2:]
	case rule == "*":
		kind = Wildcard
		rule = ""
	}
	rule = domain.Normalize(rule)
	if rule == "" && kind != Wildcard {
		return errors.New("empty rule")
	}
	var labels []string
	if rule != "" {
		labels = domain.Labels(rule)
		for _, lab := range labels {
			if lab == "" || lab == "*" {
				return fmt.Errorf("invalid label in rule %q", rule)
			}
		}
	}
	n := &l.root
	for i := len(labels) - 1; i >= 0; i-- {
		lab := labels[i]
		if n.children == nil {
			n.children = make(map[string]*node)
		}
		child, ok := n.children[lab]
		if !ok {
			child = &node{}
			n.children[lab] = child
		}
		n = child
	}
	switch kind {
	case Normal:
		n.normal = true
	case Wildcard:
		n.wildcard = true
	case Exception:
		n.exception = true
	}
	l.rules++
	return nil
}

// Len returns the number of rules in the list.
func (l *List) Len() int { return l.rules }

// PublicSuffix returns the public suffix of the normalized name per the PSL
// algorithm: the longest matching rule wins, exception rules match as one
// label shorter, and if no rule matches the TLD itself is the suffix
// (implicit "*" rule). The second result reports whether an explicit (ICANN
// or private) rule matched, as opposed to the implicit default.
func (l *List) PublicSuffix(name string) (suffix string, explicit bool) {
	name = domain.Normalize(name)
	if name == "" {
		return "", false
	}
	labels := domain.Labels(name)
	// Walk the trie from the TLD inward, tracking the deepest match.
	// matchLen is the number of labels in the winning suffix.
	matchLen := 0
	n := &l.root
	for depth := 1; depth <= len(labels); depth++ {
		lab := labels[len(labels)-depth]
		if n.wildcard {
			// A wildcard at the parent matches this label (depth labels),
			// unless an exception rule for this exact label exists.
			if child, ok := n.children[lab]; ok && child.exception {
				if depth-1 > matchLen {
					matchLen = depth - 1
				}
				explicit = true
				// An exception terminates this branch of matching: rules
				// below an exception are not defined by the PSL format.
				n = child
				continue
			}
			if depth > matchLen {
				matchLen = depth
				explicit = true
			}
		}
		child, ok := n.children[lab]
		if !ok {
			break
		}
		if child.normal && depth > matchLen {
			matchLen = depth
			explicit = true
		}
		n = child
	}
	// Check for a wildcard hanging off the final node (e.g. name "ck",
	// rule "*.ck": the wildcard does not match "ck" itself, but "ck" may
	// still have a normal rule; nothing to do here beyond the loop).
	if matchLen == 0 {
		// Implicit default rule "*": the TLD is the public suffix.
		matchLen = 1
	}
	start := len(name)
	for i := 0; i < matchLen; i++ {
		start = strings.LastIndexByte(name[:start], '.')
		if start < 0 {
			return name, explicit
		}
	}
	return name[start+1:], explicit
}

// RegisteredDomain returns the eTLD+1 for the name: the public suffix plus
// one more label. It returns "" if the name is itself a public suffix (or
// empty), in which case ok is false.
func (l *List) RegisteredDomain(name string) (etld1 string, ok bool) {
	name = domain.Normalize(name)
	suffix, _ := l.PublicSuffix(name)
	if suffix == "" || len(name) <= len(suffix) {
		return "", false
	}
	// name must end with "." + suffix.
	rest := name[:len(name)-len(suffix)]
	if !strings.HasSuffix(rest, ".") {
		return "", false
	}
	rest = rest[:len(rest)-1]
	if rest == "" {
		return "", false
	}
	if i := strings.LastIndexByte(rest, '.'); i >= 0 {
		rest = rest[i+1:]
	}
	return rest + "." + suffix, true
}

// IsPublicSuffix reports whether the name exactly equals its public suffix.
func (l *List) IsPublicSuffix(name string) bool {
	name = domain.Normalize(name)
	if name == "" {
		return false
	}
	suffix, _ := l.PublicSuffix(name)
	return suffix == name
}
