// Package domain provides normalization and parsing for DNS names and web
// origins as they appear in top lists.
//
// The lists evaluated by the study key their entries three different ways
// (Section 4.2 of the paper): registrable domains (Alexa, Majestic, Secrank,
// Tranco, Trexa), fully-qualified domain names (Umbrella), and web origins
// such as "https://google.com" (CrUX). This package provides the common
// representation the evaluation normalizes to.
package domain

import (
	"errors"
	"strings"
)

// Errors returned by parsing functions.
var (
	ErrEmpty      = errors.New("domain: empty name")
	ErrTooLong    = errors.New("domain: name exceeds 253 octets")
	ErrBadLabel   = errors.New("domain: invalid label")
	ErrBadOrigin  = errors.New("domain: invalid origin")
	ErrBadScheme  = errors.New("domain: origin scheme must be http or https")
	ErrPortNumber = errors.New("domain: invalid port")
)

// Normalize lowercases a DNS name and strips a single trailing dot. It does
// not validate the name; use Validate for that.
func Normalize(name string) string {
	name = strings.TrimSuffix(name, ".")
	// Fast path: already lowercase (the overwhelmingly common case for
	// generated names), avoid an allocation.
	lower := true
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 'A' && c <= 'Z' {
			lower = false
			break
		}
	}
	if lower {
		return name
	}
	return strings.ToLower(name)
}

// Validate checks that a (already normalized) name is a plausible DNS
// hostname: non-empty labels of letters, digits, and hyphens, no leading or
// trailing hyphen, total length <= 253.
func Validate(name string) error {
	if name == "" {
		return ErrEmpty
	}
	if len(name) > 253 {
		return ErrTooLong
	}
	for _, label := range strings.Split(name, ".") {
		if err := validateLabel(label); err != nil {
			return err
		}
	}
	return nil
}

func validateLabel(label string) error {
	if label == "" || len(label) > 63 {
		return ErrBadLabel
	}
	if label[0] == '-' || label[len(label)-1] == '-' {
		return ErrBadLabel
	}
	for i := 0; i < len(label); i++ {
		c := label[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c >= '0' && c <= '9':
		case c == '-':
		case c == '_': // tolerated: seen in the wild in Umbrella entries
		default:
			return ErrBadLabel
		}
	}
	return nil
}

// Labels splits a name into its dot-separated labels.
func Labels(name string) []string {
	if name == "" {
		return nil
	}
	return strings.Split(name, ".")
}

// CountLabels returns the number of labels without allocating.
func CountLabels(name string) int {
	if name == "" {
		return 0
	}
	return strings.Count(name, ".") + 1
}

// ParentOf returns the name with its leftmost label removed, or "" if the
// name has a single label.
func ParentOf(name string) string {
	i := strings.IndexByte(name, '.')
	if i < 0 {
		return ""
	}
	return name[i+1:]
}

// Origin is a web origin: a (scheme, host, port) triple, as used by the CrUX
// dataset to key its entries.
type Origin struct {
	Scheme string // "http" or "https"
	Host   string // normalized hostname
	Port   int    // 0 means the scheme default
}

// ParseOrigin parses strings of the form "https://example.com" or
// "http://example.com:8080". Paths, queries, userinfo, and fragments are
// rejected: an origin is not a URL.
func ParseOrigin(s string) (Origin, error) {
	var o Origin
	scheme, rest, ok := strings.Cut(s, "://")
	if !ok {
		return Origin{}, ErrBadOrigin
	}
	switch scheme {
	case "http", "https":
		o.Scheme = scheme
	default:
		return Origin{}, ErrBadScheme
	}
	if rest == "" || strings.ContainsAny(rest, "/?#@\\ ") {
		return Origin{}, ErrBadOrigin
	}
	host, portStr, hasPort := strings.Cut(rest, ":")
	o.Host = Normalize(host)
	if err := Validate(o.Host); err != nil {
		return Origin{}, err
	}
	if hasPort {
		port := 0
		if portStr == "" {
			return Origin{}, ErrPortNumber
		}
		for i := 0; i < len(portStr); i++ {
			c := portStr[i]
			if c < '0' || c > '9' {
				return Origin{}, ErrPortNumber
			}
			port = port*10 + int(c-'0')
			if port > 65535 {
				return Origin{}, ErrPortNumber
			}
		}
		if port == 0 {
			return Origin{}, ErrPortNumber
		}
		if (o.Scheme == "https" && port != 443) || (o.Scheme == "http" && port != 80) {
			o.Port = port
		}
	}
	return o, nil
}

// String renders the origin in canonical form, omitting default ports.
func (o Origin) String() string {
	var b strings.Builder
	b.Grow(len(o.Scheme) + 3 + len(o.Host) + 6)
	b.WriteString(o.Scheme)
	b.WriteString("://")
	b.WriteString(o.Host)
	if o.Port != 0 {
		b.WriteByte(':')
		writeInt(&b, o.Port)
	}
	return b.String()
}

func writeInt(b *strings.Builder, v int) {
	var buf [6]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	b.Write(buf[i:])
}
