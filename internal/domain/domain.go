// Package domain normalizes and splits DNS names as they appear in top
// lists.
//
// The lists evaluated by the study key their entries three different ways
// (Section 4.2 of the paper): registrable domains (Alexa, Majestic, Secrank,
// Tranco, Trexa), fully-qualified domain names (Umbrella), and web origins
// such as "https://google.com" (CrUX). This package provides the name-level
// form the evaluation normalizes to.
package domain

import "strings"

// Normalize lowercases a DNS name and strips a single trailing dot. It does
// not validate the name.
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

// Labels splits a name into its dot-separated labels.
func Labels(name string) []string {
	if name == "" {
		return nil
	}
	return strings.Split(name, ".")
}
