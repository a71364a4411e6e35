// Package crawler implements the paper's measurement tooling: the daily
// persistency crawler behind Fig. 3 ("we develop a web crawler to collect
// statistics over 15K-top Alexa pages ... collect hashes over the files
// and names ... ran daily over a period of 100 days") and the security-
// header survey behind Fig. 5 and the §V/§VIII statistics.
//
// The crawler consumes rendered pages — it parses HTML and response
// headers exactly as a crawler over the live web would — with the
// synthetic corpus standing in for the Alexa population. It tokenizes
// each page rather than building a DOM: the study reads only the src
// and data-hash of a page's script tags, so a Scanner renders every
// page into one reused buffer, reads the tags off dom.Tokenizer, and
// checks them against the day-0 baseline in place.
//
// Crawling is embarrassingly parallel: pages render purely from the
// corpus's deterministic generators, so the daily crawl tiles into
// (site-chunk × day) jobs and the header survey fans out one job per
// site, both through the scenario-fleet runner with per-tile counts
// folded in submission order. Counts are integers and addition is
// order-free, so the statistics are bit-identical at any worker count
// and any tiling.
package crawler

import (
	"sort"
	"strconv"
	"strings"
	"unsafe"

	"masterparasite/internal/browser"
	"masterparasite/internal/dom"
	"masterparasite/internal/runner"
	"masterparasite/internal/webcorpus"
)

// PersistencyPoint is one measurement day of Fig. 3.
type PersistencyPoint struct {
	Day int `json:"day"`
	// AnyJS is the share of sites serving at least one external script.
	AnyJS float64 `json:"any_js"`
	// PersistentName is the share of sites with at least one script whose
	// *name* has survived since day 0 — the attacker-relevant identity,
	// because caches key by name.
	PersistentName float64 `json:"persistent_name"`
	// PersistentHash is the share with at least one script unchanged in
	// *content* since day 0.
	PersistentHash float64 `json:"persistent_hash"`
}

// PersistencyResult is the Fig. 3 dataset.
type PersistencyResult struct {
	Sites  int                `json:"sites"`
	Points []PersistencyPoint `json:"points"`
}

// At returns the point for a day (or the last one before it; the first
// point when day precedes the whole study). Points are sorted by day,
// so the lookup is a binary search. An empty result — a corpus with no
// crawlable site at all — yields the zero point.
func (r *PersistencyResult) At(day int) PersistencyPoint {
	if len(r.Points) == 0 {
		return PersistencyPoint{}
	}
	i := sort.Search(len(r.Points), func(i int) bool { return r.Points[i].Day > day })
	if i == 0 {
		return r.Points[0]
	}
	return r.Points[i-1]
}

// Table flattens the dataset — one row per measurement day — for the
// CSV and Markdown artifact renderers.
func (r *PersistencyResult) Table() (header []string, rows [][]string) {
	header = []string{"day", "any_js", "persistent_hash", "persistent_name"}
	pct := func(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }
	for _, p := range r.Points {
		rows = append(rows, []string{strconv.Itoa(p.Day), pct(p.AnyJS), pct(p.PersistentHash), pct(p.PersistentName)})
	}
	return header, rows
}

// script is one same-site script a page lists: its host-qualified name
// (the cache key) and the content hash the page declares for it.
type script struct{ name, hash string }

// Scanner is one crawl job's page reader. It renders each page into a
// buffer it reuses and reads the page's script tags straight off the
// dom tokenizer, so a crawl builds no element tree and, once its
// scratch has grown, allocates nothing. A Scanner is not safe for
// concurrent use: every crawl job owns its own.
type Scanner struct {
	buf     []byte
	z       dom.Tokenizer
	scripts []script // the last page's same-site scripts, one per name
}

// Crawl fetches and classifies one site's page for a day, reporting
// false when the site does not answer.
func (s *Scanner) Crawl(site *webcorpus.Site, day int) bool {
	body, ok := site.AppendPage(s.buf[:0], day)
	if !ok {
		return false
	}
	s.buf = body
	// The page is read in place, so the scripts' strings alias buf and
	// are valid only until the next Crawl: a caller keeping one copies
	// it.
	s.classify(site.Host, unsafe.String(unsafe.SliceData(body), len(body)))
	return true
}

// classify collects a page's same-site scripts. Only same-site scripts
// are counted for the persistence study; shared third-party files (the
// analytics vector of §VI-B1) are tracked separately because they would
// otherwise dominate the statistic. A name listed twice keeps its first
// position and its last hash, as a name→hash map filled in document
// order would.
func (s *Scanner) classify(host, page string) {
	s.scripts = s.scripts[:0]
	s.z.Reset(page)
next:
	for s.z.Next() {
		if s.z.Kind != dom.StartTagToken || s.z.Name != "script" {
			continue
		}
		src := strings.TrimPrefix(s.z.Attrs.Get("src"), "//")
		path := src
		if q := strings.IndexByte(path, '?'); q >= 0 {
			path = path[:q]
		}
		if !strings.HasSuffix(path, ".js") {
			continue
		}
		if len(src) <= len(host) || src[len(host)] != '/' || src[:len(host)] != host {
			continue // third-party
		}
		hash := s.z.Attrs.Get("data-hash")
		for i := range s.scripts {
			if s.scripts[i].name == src {
				s.scripts[i].hash = hash
				continue next
			}
		}
		s.scripts = append(s.scripts, script{name: src, hash: hash})
	}
}

// scriptMap returns the last page's scripts as a name → hash map that
// owns its strings, or nil when the page lists none.
func (s *Scanner) scriptMap() map[string]string {
	if len(s.scripts) == 0 {
		return nil
	}
	m := make(map[string]string, len(s.scripts))
	for _, sc := range s.scripts {
		m[strings.Clone(sc.name)] = strings.Clone(sc.hash)
	}
	return m
}

// Persists compares the last crawled page with site i's day-0 scripts
// in b: anyJS reports that the page lists a same-site script, name that
// some baseline script is still listed under its name, and hash that
// some is still listed with its day-0 hash.
func (s *Scanner) Persists(b *Baseline, i int) (anyJS, name, hash bool) {
	base := b.scripts[i]
	for _, sc := range s.scripts {
		if h, ok := base[sc.name]; ok {
			name = true
			if h == sc.hash {
				return true, true, true
			}
		}
	}
	return len(s.scripts) > 0, name, false
}

// Baseline is the memoized day-0 crawl of a corpus: per site, in site
// order, whether it answered and its same-site scripts' name → hash
// map. CrawlPersistencyFrom and SelectTargetsFrom both compare later
// days against it, so a caller holding both can crawl day 0 once
// instead of once per consumer.
type Baseline struct {
	corpus  *webcorpus.Corpus
	scripts []map[string]string // nil for sites serving no qualifying script
	ok      []bool
	crawled int
}

// Crawled reports how many sites answered the baseline crawl.
func (b *Baseline) Crawled() int { return b.crawled }

// CrawlBaseline crawls every site once on day 0, one job per site chunk.
func CrawlBaseline(r *runner.Runner, c *webcorpus.Corpus) *Baseline {
	b := &Baseline{
		corpus:  c,
		scripts: make([]map[string]string, len(c.Sites)),
		ok:      make([]bool, len(c.Sites)),
	}
	// Each job writes only its own chunk's entries.
	_, _ = runner.Map(r, runner.Chunks(len(c.Sites), r.Workers()), func(_ int, ch [2]int) (struct{}, error) {
		var scan Scanner
		for i := ch[0]; i < ch[1]; i++ {
			if !scan.Crawl(c.Sites[i], 0) {
				continue
			}
			b.ok[i] = true
			b.scripts[i] = scan.scriptMap()
		}
		return struct{}{}, nil
	})
	for _, ok := range b.ok {
		if ok {
			b.crawled++
		}
	}
	return b
}

// dayTile is one unit of the crawl fan-out: one measurement day over a
// contiguous chunk of the corpus.
type dayTile struct {
	day    int
	lo, hi int
}

// tileCounts is a tile's fold contribution — plain integer counts, so
// folding is associative and the totals cannot depend on scheduling.
type tileCounts struct {
	anyJS, persName, persHash int
}

// CrawlPersistency runs the daily crawl for the given number of days and
// produces the Fig. 3 curves, crawling day 0 itself. Use CrawlBaseline +
// CrawlPersistencyFrom to share the baseline with target selection.
func CrawlPersistency(r *runner.Runner, c *webcorpus.Corpus, days int) *PersistencyResult {
	return CrawlPersistencyFrom(r, CrawlBaseline(r, c), days)
}

// CrawlPersistencyFrom produces the Fig. 3 curves against an existing
// day-0 baseline. The measurement fans out as (site-chunk × day) tiles
// rather than one monolithic all-sites job per day, so a wide worker
// pool stays load-balanced even when the study has fewer days than the
// pool has workers; per-tile integer counts are folded in day order.
func CrawlPersistencyFrom(r *runner.Runner, base *Baseline, days int) *PersistencyResult {
	if days <= 0 {
		days = webcorpus.StudyDays
	}
	c := base.corpus
	crawled := base.crawled
	// Percentages are over successfully crawled sites, as in the paper
	// (its statistics are over the 13,419 responders). An all-404 corpus
	// has no denominator at all: report an empty result instead of
	// dividing the curves by zero.
	res := &PersistencyResult{Sites: crawled}
	if crawled == 0 {
		return res
	}

	// Day 0 needs no second crawl: every baseline trivially persists
	// against itself, so all three curves start at the share of crawled
	// sites serving at least one script.
	withJS := 0
	for _, m := range base.scripts {
		if len(m) > 0 {
			withJS++
		}
	}
	day0Share := 100 * float64(withJS) / float64(crawled)
	res.Points = append(res.Points, PersistencyPoint{
		Day: 0, AnyJS: day0Share, PersistentName: day0Share, PersistentHash: day0Share,
	})

	chunks := runner.Chunks(len(c.Sites), r.Workers())
	tiles := make([]dayTile, 0, days*len(chunks))
	for day := 1; day <= days; day++ {
		for _, ch := range chunks {
			tiles = append(tiles, dayTile{day: day, lo: ch[0], hi: ch[1]})
		}
	}
	counts, _ := runner.Map(r, tiles, func(_ int, t dayTile) (tileCounts, error) {
		var tc tileCounts
		var scan Scanner
		for i := t.lo; i < t.hi; i++ {
			if !base.ok[i] || !scan.Crawl(c.Sites[i], t.day) {
				continue
			}
			anyJS, name, hash := scan.Persists(base, i)
			if anyJS {
				tc.anyJS++
			}
			if name {
				tc.persName++
			}
			if hash {
				tc.persHash++
			}
		}
		return tc, nil
	})
	n := float64(crawled)
	perChunk := len(chunks)
	for day := 1; day <= days; day++ {
		var total tileCounts
		for _, tc := range counts[(day-1)*perChunk : day*perChunk] {
			total.anyJS += tc.anyJS
			total.persName += tc.persName
			total.persHash += tc.persHash
		}
		res.Points = append(res.Points, PersistencyPoint{
			Day:            day,
			AnyJS:          100 * float64(total.anyJS) / n,
			PersistentName: 100 * float64(total.persName) / n,
			PersistentHash: 100 * float64(total.persHash) / n,
		})
	}
	return res
}

// SelectTargets returns, per site, the scripts that remained name-stable
// over the whole window — "these scripts are perfect targets to be
// infected with parasites" (§VI-A). It crawls its own baseline; use
// SelectTargetsFrom to reuse one already crawled.
func SelectTargets(c *webcorpus.Corpus, window int) map[string][]string {
	return SelectTargetsFrom(runner.New(1), CrawlBaseline(runner.New(1), c), window)
}

// SelectTargetsFrom selects name-stable scripts against an existing
// day-0 baseline, crawling each site only once (on the window's last
// day) instead of re-crawling day 0. One job per site chunk; each site's
// selection is sorted, so the result is identical at any worker count.
func SelectTargetsFrom(r *runner.Runner, base *Baseline, window int) map[string][]string {
	c := base.corpus
	stable := make([][]string, len(c.Sites))
	// Each job writes only its own chunk's entries.
	_, _ = runner.Map(r, runner.Chunks(len(c.Sites), r.Workers()), func(_ int, ch [2]int) (struct{}, error) {
		var scan Scanner
		for i := ch[0]; i < ch[1]; i++ {
			if len(base.scripts[i]) == 0 || !scan.Crawl(c.Sites[i], window) {
				continue
			}
			var names []string
			for _, sc := range scan.scripts {
				if _, live := base.scripts[i][sc.name]; live {
					names = append(names, strings.Clone(sc.name))
				}
			}
			sort.Strings(names)
			stable[i] = names
		}
		return struct{}{}, nil
	})
	out := make(map[string][]string)
	for i, names := range stable {
		if len(names) > 0 {
			out[c.Sites[i].Host] = names
		}
	}
	return out
}

// HeaderSurvey is the Fig. 5 + §V dataset.
type HeaderSurvey struct {
	Sites      int `json:"sites"`
	Responders int `json:"responders"`

	// §V Discussion (100K-top measurement, same shares).
	NoHTTPSShare float64 `json:"no_https_share"` // % of sites with no HTTPS at all
	VulnSSLShare float64 `json:"vuln_ssl_share"` // % with SSL2.0/SSL3.0

	// §V HSTS measurement (of responders).
	NoHSTSCount     int     `json:"no_hsts_count"`
	NoHSTSShare     float64 `json:"no_hsts_share"`
	PreloadCount    int     `json:"preload_count"`
	StrippableShare float64 `json:"strippable_share"` // responders not preloaded: SSL-strippable

	// Fig. 5 CSP statistics.
	CSPHeaderShare  float64        `json:"csp_header_share"` // % of pages supplying any CSP header
	CSPRulesShare   float64        `json:"csp_rules_share"`  // % supplying actual rules
	DeprecatedShare float64        `json:"deprecated_share"` // % of CSP pages on deprecated headers
	VersionCounts   map[string]int `json:"version_counts"`
	ConnectSrcUses  int            `json:"connect_src_uses"`
	ConnectSrcStar  int            `json:"connect_src_star"`

	// AnalyticsShare is the §VI-B1 shared-file statistic (% of sites
	// embedding the shared analytics script), folded into the survey
	// dataset by the fig5 artifact.
	AnalyticsShare float64 `json:"analytics_share"`
}

// Table flattens the survey into metric/value rows for the CSV and
// Markdown artifact renderers.
func (s *HeaderSurvey) Table() (header []string, rows [][]string) {
	header = []string{"metric", "value"}
	num := func(v int) string { return strconv.Itoa(v) }
	pct := func(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }
	rows = [][]string{
		{"sites", num(s.Sites)},
		{"responders", num(s.Responders)},
		{"no_https_share", pct(s.NoHTTPSShare)},
		{"vuln_ssl_share", pct(s.VulnSSLShare)},
		{"no_hsts_count", num(s.NoHSTSCount)},
		{"no_hsts_share", pct(s.NoHSTSShare)},
		{"preload_count", num(s.PreloadCount)},
		{"strippable_share", pct(s.StrippableShare)},
		{"csp_header_share", pct(s.CSPHeaderShare)},
		{"csp_rules_share", pct(s.CSPRulesShare)},
		{"deprecated_share", pct(s.DeprecatedShare)},
		{"connect_src_uses", num(s.ConnectSrcUses)},
		{"connect_src_star", num(s.ConnectSrcStar)},
		{"analytics_share", pct(s.AnalyticsShare)},
	}
	versions := make([]string, 0, len(s.VersionCounts))
	for v := range s.VersionCounts {
		versions = append(versions, v)
	}
	sort.Strings(versions)
	for _, v := range versions {
		rows = append(rows, []string{"version:" + v, num(s.VersionCounts[v])})
	}
	return header, rows
}

// siteObs is one site's contribution to the header survey, produced by
// an independent crawl job and folded into the totals in site order.
type siteObs struct {
	noHTTPS, vulnSSL bool
	responds         bool
	noHSTS, preload  bool
	cspVersion       string // "" = no CSP
	cspRules         bool
	cspDeprecated    bool
	connectSrc       bool
	connectSrcStar   bool
}

// SurveyHeaders crawls every responding site's front page once and
// tallies the security-header statistics. One job per site.
func SurveyHeaders(r *runner.Runner, c *webcorpus.Corpus) *HeaderSurvey {
	obs, _ := runner.Map(r, c.Sites, func(_ int, site *webcorpus.Site) (siteObs, error) {
		var o siteObs
		switch site.SSL {
		case webcorpus.SSLNone:
			o.noHTTPS = true
		case webcorpus.SSLv2, webcorpus.SSLv3:
			o.vulnSSL = true
		}
		resp := site.RenderPage(0)
		if resp.StatusCode != 200 {
			return o, nil
		}
		o.responds = true
		o.noHSTS = !resp.Header.Has("Strict-Transport-Security")
		o.preload = site.HSTSPreload
		csp := browser.CSPFromHeaders(resp.Header.Get)
		if csp.Present {
			o.cspRules = len(csp.Directives) > 0
			o.cspDeprecated = csp.Deprecated
			switch {
			case !csp.Deprecated:
				o.cspVersion = "CSP"
			case resp.Header.Get(browser.CSPHeaderDeprecated) != "":
				o.cspVersion = "X-CSP"
			default:
				o.cspVersion = "X-Webkit-CSP"
			}
			o.connectSrc = csp.HasDirective("connect-src")
			o.connectSrcStar = o.connectSrc && csp.Wildcard("connect-src")
		}
		return o, nil
	})

	s := &HeaderSurvey{Sites: len(c.Sites), VersionCounts: make(map[string]int)}
	var noHTTPS, vulnSSL int
	var cspAny, cspRules, cspDeprecated int
	for _, o := range obs {
		if o.noHTTPS {
			noHTTPS++
		}
		if o.vulnSSL {
			vulnSSL++
		}
		if !o.responds {
			continue
		}
		s.Responders++
		if o.noHSTS {
			s.NoHSTSCount++
		}
		if o.preload {
			s.PreloadCount++
		}
		if o.cspVersion != "" {
			cspAny++
			if o.cspRules {
				cspRules++
			}
			if o.cspDeprecated {
				cspDeprecated++
			}
			s.VersionCounts[o.cspVersion]++
			if o.connectSrc {
				s.ConnectSrcUses++
				if o.connectSrcStar {
					s.ConnectSrcStar++
				}
			}
		}
	}
	// An empty corpus has no denominator: its shares stay zero instead
	// of NaN, which JSON cannot encode.
	if s.Sites > 0 {
		n := float64(s.Sites)
		s.NoHTTPSShare = 100 * float64(noHTTPS) / n
		s.VulnSSLShare = 100 * float64(vulnSSL) / n
		s.CSPHeaderShare = 100 * float64(cspAny) / n
		s.CSPRulesShare = 100 * float64(cspRules) / n
	}
	if s.Responders > 0 {
		r := float64(s.Responders)
		s.NoHSTSShare = 100 * float64(s.NoHSTSCount) / r
		s.StrippableShare = 100 * float64(s.Responders-s.PreloadCount) / r
	}
	if cspAny > 0 {
		s.DeprecatedShare = 100 * float64(cspDeprecated) / float64(cspAny)
	}
	return s
}

// AnalyticsShare measures the §VI-B1 shared-file statistic: the fraction
// of sites embedding the shared analytics script (0 for an empty
// corpus).
func AnalyticsShare(c *webcorpus.Corpus) float64 {
	if len(c.Sites) == 0 {
		return 0
	}
	n := 0
	for _, s := range c.Sites {
		if s.UsesGoogleAnalytics {
			n++
		}
	}
	return 100 * float64(n) / float64(len(c.Sites))
}
