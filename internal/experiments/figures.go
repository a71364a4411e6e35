package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"masterparasite/internal/artifact"
	"masterparasite/internal/attacker"
	"masterparasite/internal/cnc"
	"masterparasite/internal/core"
	"masterparasite/internal/crawler"
	"masterparasite/internal/netsim"
	"masterparasite/internal/parasite"
	"masterparasite/internal/runner"
	"masterparasite/internal/webcorpus"
)

// Figure3 reproduces the persistency measurement: a daily crawl of the
// synthetic Alexa population, rendered as the three curves of the
// figure. The crawl fans out per-day jobs on the runner.
func Figure3(env artifact.Env) (*artifact.Result, error) {
	sites, days := env.Param("sites"), env.Param("days")
	corpus := webcorpus.Generate(webcorpus.Params{Sites: sites, Seed: int64(env.Param("seed"))})
	res := crawler.CrawlPersistency(env.Runner, corpus, days)

	var b strings.Builder
	fmt.Fprintf(&b, "sites crawled: %d, days: %d\n", res.Sites, days)
	fmt.Fprintf(&b, "%-6s %-10s %-18s %-18s\n", "day", "any .js", "persistent(hash)", "persistent(name)")
	for _, day := range []int{0, 1, 5, 10, 20, 40, 60, 80, days} {
		if day > days {
			continue
		}
		p := res.At(day)
		fmt.Fprintf(&b, "%-6d %-10.2f %-18.2f %-18.2f\n", p.Day, p.AnyJS, p.PersistentHash, p.PersistentName)
	}
	p5, pEnd := res.At(5), res.At(days)
	fmt.Fprintf(&b, "\npaper anchors: ≈87.5%% name-persistent @5d (measured %.1f%%), ≈75.3%% @100d (measured %.1f%%)\n",
		p5.PersistentName, pEnd.PersistentName)
	return &artifact.Result{Text: b.String(), Dataset: res}, nil
}

// Figure5 reproduces the CSP statistics plus the §V HSTS/HTTPS survey.
// The survey fans out per-site jobs on the runner.
func Figure5(env artifact.Env) (*artifact.Result, error) {
	corpus := webcorpus.Generate(webcorpus.Params{Sites: env.Param("sites"), Seed: int64(env.Param("seed"))})
	s := crawler.SurveyHeaders(env.Runner, corpus)
	s.AnalyticsShare = crawler.AnalyticsShare(corpus)

	var b strings.Builder
	fmt.Fprintf(&b, "population: %d sites, %d responders\n\n", s.Sites, s.Responders)
	fmt.Fprintf(&b, "§V transport security (paper: 21%% no HTTPS, ~7%% vulnerable SSL)\n")
	fmt.Fprintf(&b, "  no HTTPS:         %6.2f%%\n", s.NoHTTPSShare)
	fmt.Fprintf(&b, "  vulnerable SSL:   %6.2f%%\n", s.VulnSSLShare)
	fmt.Fprintf(&b, "§V HSTS (paper: 67.92%% without HSTS, 96.59%% SSL-strippable)\n")
	fmt.Fprintf(&b, "  no HSTS:          %6.2f%% (%d responders)\n", s.NoHSTSShare, s.NoHSTSCount)
	fmt.Fprintf(&b, "  preloaded:        %d\n", s.PreloadCount)
	fmt.Fprintf(&b, "  SSL-strippable:   %6.2f%%\n", s.StrippableShare)
	fmt.Fprintf(&b, "Fig. 5 CSP statistics (paper: ~4.7%% supply CSP, 15.3%% deprecated)\n")
	fmt.Fprintf(&b, "  CSP header:       %6.2f%%\n", s.CSPHeaderShare)
	fmt.Fprintf(&b, "  with rules:       %6.2f%%\n", s.CSPRulesShare)
	fmt.Fprintf(&b, "  deprecated share: %6.2f%%\n", s.DeprecatedShare)
	fmt.Fprintf(&b, "  versions:         %v\n", s.VersionCounts)
	fmt.Fprintf(&b, "  connect-src uses: %d (wildcard: %d — paper: 160 uses, 17 wildcards)\n",
		s.ConnectSrcUses, s.ConnectSrcStar)
	fmt.Fprintf(&b, "§VI-B1 shared analytics script: %.1f%% of sites (paper: 63%%)\n",
		s.AnalyticsShare)
	return &artifact.Result{Text: b.String(), Dataset: s}, nil
}

// CNCReport is the §VI-C throughput measurement. Rates are payload
// bytes per virtual second on netsim under the modelled RTT.
type CNCReport struct {
	PayloadBytes        int     `json:"payload_bytes"`
	RTTMs               float64 `json:"rtt_ms"`                   // modelled round trip
	DownstreamBulk      float64 `json:"downstream_bulk_bps"`      // B/s, 16 concurrent 64-image sprites
	DownstreamRTTConc   float64 `json:"downstream_rtt_conc_bps"`  // B/s, 16 concurrent, one image per request
	DownstreamRTTSeq    float64 `json:"downstream_rtt_seq_bps"`   // B/s, sequential, one image per request
	UpstreamThroughput  float64 `json:"upstream_bps"`             // B/s, 16 concurrent URL chunks
	BytesPerImage       int     `json:"bytes_per_image"`          // payload bytes per covert image
	OverheadBytesPerImg int     `json:"overhead_bytes_per_image"` // rendered SVG size
}

// Table flattens the report into metric/value rows.
func (r CNCReport) Table() (header []string, rows [][]string) {
	header = []string{"metric", "value"}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 0, 64) }
	rows = [][]string{
		{"payload_bytes", fint(r.PayloadBytes)},
		{"rtt_ms", strconv.FormatFloat(r.RTTMs, 'f', 1, 64)},
		{"downstream_bulk_bps", f(r.DownstreamBulk)},
		{"downstream_rtt_conc_bps", f(r.DownstreamRTTConc)},
		{"downstream_rtt_seq_bps", f(r.DownstreamRTTSeq)},
		{"upstream_bps", f(r.UpstreamThroughput)},
		{"bytes_per_image", fint(r.BytesPerImage)},
		{"overhead_bytes_per_image", fint(r.OverheadBytesPerImg)},
	}
	return header, rows
}

// cncSeed is the base seed of the covert-channel legs.
const cncSeed = 83

// cncRTT is the round trip the §VI-C measurement models: a netsim
// segment whose latency is half of it, with both hosts on the segment.
const cncRTT = time.Millisecond

// CNCThroughput measures the covert channel on netsim, in bytes per
// virtual second under a modelled 1 ms RTT. The headline rate is the
// sprite-batched bulk path; the concurrency comparison pins one image
// per request on a smaller payload, because the channel is RTT-bound —
// which is exactly why the paper's 100 KB/s needs "a client which sends
// requests for multiple images simultaneously".
func CNCThroughput(env artifact.Env) (*artifact.Result, error) {
	payload := env.Param("payload")
	legs := []channelRun{
		{Payload: payload, Window: 16, Batch: 64, Upload: true},
		{Payload: 2048, Window: 16, Batch: 1},
		{Payload: 2048, Window: 1, Batch: 1},
	}
	runs, err := runner.Map(env.Runner, legs, func(i int, c channelRun) (channelResult, error) {
		c.Latency, c.Seed = cncRTT/2, runner.Seed(cncSeed, fmt.Sprintf("leg-%d", i))
		res, err := runChannel(c)
		if err == nil && (res.Down == 0 || c.Upload && res.Up == 0) {
			err = fmt.Errorf("cnc leg %d: transfer failed on a clean link", i)
		}
		return res, err
	})
	if err != nil {
		return nil, err
	}

	svg := cnc.RenderSVG(cnc.Dim{W: 65535, H: 65535})
	rep := CNCReport{
		PayloadBytes:        payload,
		RTTMs:               float64(cncRTT) / float64(time.Millisecond),
		DownstreamBulk:      rate(payload, runs[0].Down),
		DownstreamRTTConc:   rate(legs[1].Payload, runs[1].Down),
		DownstreamRTTSeq:    rate(legs[2].Payload, runs[2].Down),
		UpstreamThroughput:  rate(payload, runs[0].Up),
		BytesPerImage:       cnc.BytesPerImage,
		OverheadBytesPerImg: len(svg),
	}
	var b strings.Builder
	fmt.Fprintf(&b, "payload: %d bytes, %d images of ~%d bytes (4 payload bytes each)\n",
		payload, cnc.ImagesNeeded(payload), rep.OverheadBytesPerImg)
	fmt.Fprintf(&b, "rates in bytes per virtual second on netsim, modelled RTT %.1f ms\n", rep.RTTMs)
	fmt.Fprintf(&b, "downstream, 16 concurrent, 64-image sprites: %10.0f B/s\n", rep.DownstreamBulk)
	fmt.Fprintf(&b, "downstream, 16 concurrent, 1 image each:     %10.0f B/s\n", rep.DownstreamRTTConc)
	fmt.Fprintf(&b, "downstream, sequential, 1 image each:        %10.0f B/s\n", rep.DownstreamRTTSeq)
	fmt.Fprintf(&b, "concurrent / sequential:                     %10.1fx\n", rep.DownstreamRTTConc/rep.DownstreamRTTSeq)
	fmt.Fprintf(&b, "upstream, 16 concurrent URL chunks:          %10.0f B/s\n", rep.UpstreamThroughput)
	fmt.Fprintf(&b, "paper claim: ≈100KB/s downstream with simultaneous image requests\n")
	return &artifact.Result{Text: b.String(), Dataset: rep}, nil
}

// FlowEvent is one traced frame of a message-flow phase.
type FlowEvent struct {
	TimeMs float64 `json:"time_ms"`
	Src    string  `json:"src"`
	Dst    string  `json:"dst"`
	Bytes  int     `json:"bytes"`
}

// FlowPhase is one figure's traced message sequence.
type FlowPhase struct {
	Name   string      `json:"name"`
	Events []FlowEvent `json:"events"`
}

// FlowsData is the Figures 1/2/4 dataset.
type FlowsData []FlowPhase

// Table flattens the dataset for the CSV and Markdown renderers.
func (d FlowsData) Table() (header []string, rows [][]string) {
	header = []string{"phase", "time_ms", "src", "dst", "bytes"}
	for _, p := range d {
		for _, e := range p.Events {
			rows = append(rows, []string{p.Name,
				strconv.FormatFloat(e.TimeMs, 'f', 2, 64), e.Src, e.Dst, fint(e.Bytes)})
		}
	}
	return header, rows
}

// MessageFlows renders the Fig. 1 / Fig. 2 / Fig. 4 message sequences by
// tracing a scripted kill-chain run.
func MessageFlows(artifact.Env) (*artifact.Result, error) {
	s, err := core.NewScenario(core.Config{Seed: 77})
	if err != nil {
		return nil, err
	}
	tl := netsim.NewTraceLog()
	defer tl.Release()
	s.Net.SetTrace(func(e netsim.TraceEvent) {
		if !e.Tapped {
			tl.Append(e)
		}
	})
	s.AddPage("somesite.com", "/", `<html><body><script src="/my.js"></script></body></html>`,
		map[string]string{"Cache-Control": "no-store"})
	s.AddPage("somesite.com", "/my.js", "function site(){}",
		map[string]string{"Cache-Control": "max-age=600"})
	s.AddPage("top1.com", "/", `<html><body><script src="/persistent.js"></script></body></html>`, nil)
	s.AddPage("top1.com", "/persistent.js", "function lib(){}",
		map[string]string{"Cache-Control": "max-age=600"})

	cfg := parasite.NewConfig("flow", "bot-flow", core.MasterHost)
	cfg.PropagationTargets = []string{"top1.com"}
	s.Registry.Add(cfg)
	for _, name := range []string{"somesite.com/my.js", "top1.com/persistent.js"} {
		s.Master.AddTarget(attacker.Target{Name: name, Kind: attacker.KindJS,
			ParasitePayload: "flow", Original: []byte("function original(){}")})
	}
	s.Master.EnableEviction(core.JunkHost, 4, 1024, "any.com")
	s.AddPage("any.com", "/", "<html><body>x</body></html>", map[string]string{"Cache-Control": "no-store"})

	// Phase 1 (Fig. 1): eviction. Phase 2 (Fig. 2): infection +
	// propagation. Phase 3 (Fig. 4): C&C from the home network.
	phase := func(name string, fn func() error) (FlowPhase, error) {
		tl.Reset()
		if err := fn(); err != nil {
			return FlowPhase{}, err
		}
		p := FlowPhase{Name: name}
		for _, e := range tl.Events() {
			p.Events = append(p.Events, FlowEvent{
				TimeMs: float64(e.Time.Microseconds()) / 1000,
				Src:    string(e.Src), Dst: string(e.Dst), Bytes: e.Size,
			})
		}
		return p, nil
	}
	var phases FlowsData
	p, err := phase("Fig. 1: cache eviction", func() error {
		_, err := s.Visit("any.com", "/")
		return err
	})
	if err != nil {
		return nil, err
	}
	phases = append(phases, p)
	p, err = phase("Fig. 2: cache infection + propagation", func() error {
		_, err := s.Visit("somesite.com", "/")
		return err
	})
	if err != nil {
		return nil, err
	}
	phases = append(phases, p)
	s.LeaveAttackerNetwork()
	s.CNC.QueueCommand("bot-flow", []byte("noop|"))
	p, err = phase("Fig. 4: C&C after moving networks", func() error {
		_, err := s.Visit("top1.com", "/")
		return err
	})
	if err != nil {
		return nil, err
	}
	phases = append(phases, p)

	var out strings.Builder
	for _, ph := range phases {
		fmt.Fprintf(&out, "--- %s ---\n", ph.Name)
		for _, e := range ph.Events {
			fmt.Fprintf(&out, "%8.2fms  %-12s → %-12s  %4dB\n", e.TimeMs, e.Src, e.Dst, e.Bytes)
		}
	}
	return &artifact.Result{Text: out.String(), Dataset: phases}, nil
}
