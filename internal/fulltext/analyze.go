// Package fulltext implements TATOOINE's full-text substrate: an
// analyzed, inverted-index document store with BM25 ranking. It stands
// in for the Apache Solr instances that hold tweets and Facebook posts
// in the paper's mixed instance, exposing the same query capabilities
// the mediator relies on (term/hashtag/field lookup, boolean
// combinations, ranking, stored-field retrieval, term statistics).
//
// Evaluation works on sorted lists: Add appends documents in order, so
// every posting list holds ascending doc ids, and so does each query
// node's answer. A keyword leaf is its posting list itself, with a
// constant score. Conjunctions go smallest list first, galloping through
// the others; disjunctions are a k-way merge, MustNot a galloping
// difference; no map is built. Still allocated: merge and intersection
// outputs, text terms' scored lists, Range ids (sorted afterwards),
// AllQuery's list of every document, and Search's sorted hits.
package fulltext

import (
	"strings"
	"unicode"
)

// Analyzer turns text into index tokens: Unicode word segmentation,
// lower-casing, accent folding, stop-word removal and light FR/EN
// suffix stemming (the paper's corpus is French political Twitter).
type Analyzer struct {
	stopwords map[string]struct{}
	stem      bool
}

// NewAnalyzer returns the default French+English analyzer.
func NewAnalyzer() *Analyzer {
	return &Analyzer{stopwords: defaultStopwords, stem: true}
}

// NewAnalyzerNoStem returns an analyzer without stemming (useful in
// tests and for exactish matching of short fields).
func NewAnalyzerNoStem() *Analyzer {
	return &Analyzer{stopwords: defaultStopwords, stem: false}
}

// Tokens analyzes text into the token stream, preserving positions
// (the slice index is the token position).
func (a *Analyzer) Tokens(text string) []string {
	raw := tokenize(text)
	out := make([]string, 0, len(raw))
	for _, t := range raw {
		t = Fold(t)
		if _, stop := a.stopwords[t]; stop {
			continue
		}
		if len(t) < 2 {
			continue
		}
		if a.stem {
			t = LightStem(t)
		}
		out = append(out, t)
	}
	return out
}

// tokenize splits text into runs of letters/digits. '#' and '@' sigils
// attach to the following word so hashtags and mentions survive as
// distinct tokens ("#SIA2016" → "#sia2016").
func tokenize(text string) []string {
	var out []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			out = append(out, strings.ToLower(b.String()))
			b.Reset()
		}
	}
	prevSigil := false
	for _, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(r)
			prevSigil = false
		case (r == '#' || r == '@') && b.Len() == 0:
			b.WriteRune(r)
			prevSigil = true
		case r == '\'' || r == '’':
			// French elision: "l'état" → "l", "état". Flush the prefix.
			flush()
		default:
			if prevSigil {
				b.Reset()
				prevSigil = false
			}
			flush()
		}
	}
	flush()
	return out
}

// Fold lower-cases and strips diacritics from common French letters.
func Fold(s string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(s) {
		if folded, ok := foldMap[r]; ok {
			b.WriteString(folded)
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

var foldMap = map[rune]string{
	'à': "a", 'â': "a", 'ä': "a",
	'é': "e", 'è': "e", 'ê': "e", 'ë': "e",
	'î': "i", 'ï': "i",
	'ô': "o", 'ö': "o",
	'ù': "u", 'û': "u", 'ü': "u",
	'ç': "c", 'œ': "oe", 'æ': "ae",
	'ÿ': "y", 'ñ': "n",
}

// LightStem applies a light suffix stemmer adequate for matching
// French/English inflections in tweets: plural and a few verbal/
// adjectival endings. It never reduces a token below three characters.
func LightStem(t string) string {
	if strings.HasPrefix(t, "#") || strings.HasPrefix(t, "@") {
		return t // sigil tokens are matched exactly
	}
	for _, suf := range []string{"issements", "issement", "issantes", "issants", "issante", "issant"} {
		if strings.HasSuffix(t, suf) && len(t)-len(suf) >= 3 {
			return t[:len(t)-len(suf)] + "ir"
		}
	}
	if strings.HasSuffix(t, "aux") && len(t) > 4 {
		return t[:len(t)-3] + "al"
	}
	for _, suf := range []string{"ations", "ation", "ements", "ement", "euses", "euse", "istes", "iste", "ives", "ive"} {
		if strings.HasSuffix(t, suf) && len(t)-len(suf) >= 3 {
			return t[:len(t)-len(suf)]
		}
	}
	for _, suf := range []string{"ing", "ed"} { // light English
		if strings.HasSuffix(t, suf) && len(t)-len(suf) >= 4 {
			return t[:len(t)-len(suf)]
		}
	}
	// Plurals and mute endings.
	for _, suf := range []string{"es", "s", "e"} {
		if strings.HasSuffix(t, suf) && len(t)-len(suf) >= 3 {
			return t[:len(t)-len(suf)]
		}
	}
	return t
}

var defaultStopwords = func() map[string]struct{} {
	words := []string{
		// French
		"le", "la", "les", "de", "des", "du", "un", "une", "et", "en",
		"pour", "que", "qui", "quoi", "dans", "sur", "au", "aux", "avec",
		"ce", "cette", "ces", "cet", "il", "elle", "ils", "elles", "on",
		"nous", "vous", "je", "tu", "ne", "pas", "est", "sont", "etre",
		"avoir", "a", "ont", "se", "son", "sa", "ses", "leur", "leurs",
		"plus", "par", "ou", "mais", "donc", "car", "si", "tout", "tous",
		"toute", "toutes", "comme", "meme", "aussi", "bien", "tres",
		"fait", "faire", "peut", "notre", "nos", "votre", "vos", "mon",
		"ma", "mes", "ton", "ta", "tes", "lui", "y", "l", "d", "c", "j",
		"n", "s", "t", "m", "qu",
		// English
		"the", "a", "an", "of", "to", "and", "in", "is", "are", "was",
		"were", "for", "on", "with", "that", "this", "it", "as", "be",
		"by", "at", "from", "or", "we", "our", "not", "but", "have",
		"has", "had", "they", "their", "you", "your", "i", "he", "she",
	}
	m := make(map[string]struct{}, len(words))
	for _, w := range words {
		m[Fold(w)] = struct{}{}
	}
	return m
}()

// IsStopword reports whether the folded token is a stop word.
func IsStopword(t string) bool {
	_, ok := defaultStopwords[Fold(t)]
	return ok
}
