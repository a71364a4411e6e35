package crawler

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"masterparasite/internal/dom"
	"masterparasite/internal/runner"
	"masterparasite/internal/webcorpus"
)

// scanHost is the site the hand-written pages below belong to.
const scanHost = "h.example"

// hostilePages are pages no corpus emits, each aimed at one way a tag
// scan can drift from the tree parser.
var hostilePages = map[string]string{
	"commented script": `<head><!-- <script src="//h.example/c.js" data-hash="c"></script> --><script src="//h.example/a.js" data-hash="a"></script></head>`,
	"upper case":       `<HTML LANG="en"><SCRIPT SRC="//h.example/U.js" DATA-HASH="U"></SCRIPT><Script Src="//h.example/m.js" Data-Hash="m"></sCrIpT></HTML>`,
	"quoting":          `<script src='//h.example/q.js' data-hash='q1'></script><script src=//h.example/u.js data-hash=u1></script><img src=x.png alt='a b'>`,
	"duplicate attrs":  `<script src="//h.example/first.js" data-hash="1" src="//h.example/second.js" data-hash="2"></script>`,
	"self-closing":     `<body><script src="//h.example/s.js" data-hash="s"/><p>swallowed</p></script><img src="//h.example/i.png"/><div>after</div></body>`,
	"unterminated":     `<head><script src="//h.example/t.js" data-hash="t">var x = "<script src='//h.example/inner.js'>";`,
	"query suffix":     `<script src="//h.example/v.js?ver=3" data-hash="v"></script><script src="//h.example/w.jsx?a.js" data-hash="w"></script>`,
	"third party":      `<script src="//cdn.other.example/lib.js" data-hash="x"></script><script src="//h.example.evil/e.js" data-hash="e"></script><script src="//h.example/own.js" data-hash="o"></script>`,
	"duplicate script": `<script src="//h.example/d.js" data-hash="d1"></script><script src="//h.example/d.js" data-hash="d2"></script>`,
	"no scripts":       `<!DOCTYPE html><html><body><h1>t</h1><img src="//h.example/a.png"></body></html>`,
}

// startTag is one start tag: its name and attributes.
type startTag struct {
	name  string
	attrs dom.AttrList
}

// scannedTags lists a page's start tags as a Scanner sees them: straight
// off the tokenizer, with <html> left to the root as ParseHTML does.
func scannedTags(page string) []startTag {
	var z dom.Tokenizer
	z.Reset(page)
	var tags []startTag
	for z.Next() {
		if z.Kind == dom.StartTagToken && z.Name != "html" {
			tags = append(tags, startTag{z.Name, append(dom.AttrList(nil), z.Attrs...)})
		}
	}
	return tags
}

// treeTags lists a page's elements in document order from ParseHTML's
// tree, leaving out the root that every <html> tag merges into.
func treeTags(page string) []startTag {
	root := dom.ParseHTML(scanHost+"/", []byte(page)).Root
	var tags []startTag
	root.Walk(func(el *dom.Element) {
		if el != root {
			tags = append(tags, startTag{el.Tag, el.Attrs})
		}
	})
	return tags
}

// referenceScripts is the crawler's rule on a DOM: walk ParseHTML's
// tree and map every same-site script name to its data-hash, the last
// occurrence winning.
func referenceScripts(host, page string) map[string]string {
	var scripts map[string]string
	dom.ParseHTML(host+"/", []byte(page)).Root.Walk(func(el *dom.Element) {
		if el.Tag != "script" {
			return
		}
		src := strings.TrimPrefix(el.Attr("src"), "//")
		path := src
		if q := strings.IndexByte(path, '?'); q >= 0 {
			path = path[:q]
		}
		if !strings.HasSuffix(path, ".js") || !strings.HasPrefix(src, host+"/") {
			return
		}
		if scripts == nil {
			scripts = make(map[string]string)
		}
		scripts[src] = el.Attr("data-hash")
	})
	return scripts
}

// referencePersists is the per-page verdict on two maps: a lookup per
// baseline script in the day's name → hash map.
func referencePersists(base, day map[string]string) (anyJS, name, hash bool) {
	for n, baseHash := range base {
		if dayHash, live := day[n]; live {
			name = true
			if dayHash == baseHash {
				hash = true
			}
		}
	}
	return len(day) > 0, name, hash
}

// checkScanMatchesTree fails when the tokenizer scan and the tree walk
// disagree on a page's start tags, or the Scanner's script list on it
// disagrees with the reference rule.
func checkScanMatchesTree(t *testing.T, host, page string) {
	t.Helper()
	if got, want := scannedTags(page), treeTags(page); !reflect.DeepEqual(got, want) {
		t.Fatalf("page %q:\nscan %v\ntree %v", page, got, want)
	}
	var s Scanner
	s.classify(host, page)
	if got, want := s.scriptMap(), referenceScripts(host, page); !reflect.DeepEqual(got, want) {
		t.Fatalf("page %q: scripts %v, reference %v", page, got, want)
	}
}

// TestTokenizerMatchesParseHTML runs the differential check over real
// corpus pages — responders on several days, so pages list both
// name-eternal and renamed scripts — and over the hostile pages.
func TestTokenizerMatchesParseHTML(t *testing.T) {
	t.Parallel()
	c := webcorpus.Generate(webcorpus.Params{Sites: 30, Seed: 21})
	for _, site := range c.Sites {
		for _, day := range []int{0, 1, 17, 60} {
			body, ok := site.AppendPage(nil, day)
			if ok {
				checkScanMatchesTree(t, site.Host, string(body))
			}
		}
	}
	for name, page := range hostilePages {
		t.Run(name, func(t *testing.T) { checkScanMatchesTree(t, scanHost, page) })
	}
}

// FuzzTokenizerMatchesParseHTML widens the differential check to
// arbitrary bytes; its seeds are the hostile pages, so plain go test
// runs them.
func FuzzTokenizerMatchesParseHTML(f *testing.F) {
	for _, page := range hostilePages {
		f.Add(page)
	}
	f.Fuzz(func(t *testing.T, page string) {
		checkScanMatchesTree(t, scanHost, page)
	})
}

// TestDuplicateScriptVerdicts pins what a page listing one same-site
// script twice means: on day 0 and on every later day the last
// occurrence's hash is the name's hash, as in a per-page name → hash
// map filled in document order. Checking "any occurrence matches"
// instead would count the earlier-occurrence cases below as
// hash-persistent.
func TestDuplicateScriptVerdicts(t *testing.T) {
	t.Parallel()
	tag := func(name, hash string) string {
		return `<script src="//h.example/` + name + `" data-hash="` + hash + `"></script>`
	}
	day0 := tag("a.js", "1") + tag("b.js", "x") + tag("a.js", "2")
	cases := []struct {
		name              string
		page              string
		anyJS, named, hsh bool
	}{
		{"unchanged page", day0, true, true, true},
		{"last occurrence keeps the day-0 hash", tag("a.js", "9") + tag("a.js", "2"), true, true, true},
		{"only an earlier occurrence has it", tag("a.js", "2") + tag("a.js", "9"), true, true, false},
		{"day-0 first occurrence's hash", tag("a.js", "1"), true, true, false},
		{"duplicate renamed away", tag("c.js", "2") + tag("c.js", "1"), true, false, false},
		{"no scripts", `<img src="//h.example/a.png">`, false, false, false},
	}
	var s Scanner
	s.classify(scanHost, day0)
	base := &Baseline{scripts: []map[string]string{s.scriptMap()}}
	if got := base.scripts[0]["h.example/a.js"]; got != "2" {
		t.Fatalf("day-0 hash of a.js = %q, want the last occurrence's 2", got)
	}
	for _, c := range cases {
		s.classify(scanHost, c.page)
		anyJS, named, hsh := s.Persists(base, 0)
		if anyJS != c.anyJS || named != c.named || hsh != c.hsh {
			t.Errorf("%s: verdict (any %v, name %v, hash %v), want (%v, %v, %v)", c.name, anyJS, named, hsh, c.anyJS, c.named, c.hsh)
		}
		refAny, refNamed, refHash := referencePersists(referenceScripts(scanHost, day0), referenceScripts(scanHost, c.page))
		if anyJS != refAny || named != refNamed || hsh != refHash {
			t.Errorf("%s: verdict (any %v, name %v, hash %v), map rule (%v, %v, %v)", c.name, anyJS, named, hsh, refAny, refNamed, refHash)
		}
	}
}

// TestScannerAllocs locks in the steady-state crawl step: once a
// Scanner's buffer and scratch have grown and the site's timeline is
// memoized, rendering, scanning and comparing a page allocates nothing.
// Skipped in -short mode: the CI race detector perturbs allocation
// counts.
func TestScannerAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts shift under -race; tier-1 runs this")
	}
	c := webcorpus.Generate(webcorpus.Params{Sites: 50, Seed: 3})
	base := CrawlBaseline(runner.New(1), c)
	i := 0
	for !base.ok[i] || len(base.scripts[i]) == 0 {
		i++
	}
	var s Scanner
	s.Crawl(c.Sites[i], 7) // grow the scratch, warm the memo
	got := testing.AllocsPerRun(200, func() {
		if !s.Crawl(c.Sites[i], 7) {
			t.Fatal("site stopped answering")
		}
		if anyJS, _, _ := s.Persists(base, i); !anyJS {
			t.Fatal("page lost its scripts")
		}
	})
	if got > 0 {
		t.Errorf("crawl step allocs/op = %.0f, want 0", got)
	}
}

// TestSurveyEmptyCorpusJSON pins the empty-corpus guard: with no site
// there is no denominator, and the survey must carry zero shares that
// JSON can encode instead of NaN.
func TestSurveyEmptyCorpusJSON(t *testing.T) {
	t.Parallel()
	c := &webcorpus.Corpus{}
	s := SurveyHeaders(testRunner(), c)
	s.AnalyticsShare = AnalyticsShare(c)
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal empty survey: %v", err)
	}
	var back HeaderSurvey
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Sites != 0 || back.NoHTTPSShare != 0 || back.CSPHeaderShare != 0 || back.AnalyticsShare != 0 {
		t.Fatalf("empty survey = %s, want zero counts and shares", raw)
	}
}
