package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"ppscan"
)

// summary is the part of a /cluster answer the benchmark checks: the
// counts the server derives from the clustering.
type summary struct {
	Clusters    int `json:"clusters"`
	Cores       int `json:"cores"`
	Memberships int `json:"memberships"`
}

func summarize(res *ppscan.Result) summary {
	return summary{Clusters: res.NumClusters(), Cores: res.NumCores(), Memberships: len(res.NonCore)}
}

// key is one (ε, µ) query.
type key struct {
	eps string
	mu  int
}

func (k key) String() string { return "eps=" + k.eps + "&mu=" + strconv.Itoa(k.mu) }

// decGrid returns the decimal strings lo/10^scale, (lo+step)/10^scale, …,
// hi/10^scale with trailing zeros trimmed — the same spelling the server
// uses for sweep gridpoints.
func decGrid(lo, hi, step, scale int) []string {
	var out []string
	for v := lo; v <= hi; v += step {
		s := fmt.Sprintf("0.%0*d", scale, v)
		s = strings.TrimRight(s, "0")
		out = append(out, s)
	}
	return out
}

func keys(eps []string, mus []int) []key {
	var out []key
	for _, m := range mus {
		for _, e := range eps {
			out = append(out, key{e, m})
		}
	}
	return out
}

// references answers every key from a GS*-Index: the index shares no code
// with the ppSCAN path /cluster computes on, and it answers any (ε, µ)
// without a fresh similarity pass. Queries run on workers goroutines.
func references(ix *ppscan.Index, ks []key, workers int, into map[key]summary) error {
	out := make([]summary, len(ks))
	errs := make([]error, len(ks))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ks); i += workers {
				res, err := ix.Query(ks[i].eps, int32(ks[i].mu))
				if err != nil {
					errs[i] = fmt.Errorf("reference %s: %w", ks[i], err)
					continue
				}
				out[i] = summarize(res)
			}
		}(w)
	}
	wg.Wait()
	for i, k := range ks {
		if errs[i] != nil {
			return errs[i]
		}
		into[k] = out[i]
	}
	return nil
}

// listen starts serving h on a fresh loopback port.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go func() { _ = hs.Serve(ln) }()
	return hs, "http://" + ln.Addr().String(), nil
}

// closeServer stops an HTTP server and waits for its handlers to return.
func closeServer(hs *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		_ = hs.Close()
	}
}

// newClient returns the load generator's client: at most conns
// connections to the server, so a request beyond that waits for one.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
	}}
}

// get fetches url and returns the body of a 200 response.
func get(c *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return do(c, req)
}

func do(c *http.Client, req *http.Request) ([]byte, error) {
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", req.Method, req.URL.Path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s?%s: status %d: %s", req.Method, req.URL.Path, req.URL.RawQuery,
			resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// checkSummary compares a /cluster body with the accepted reference
// answers (more than one when the graph state is ambiguous).
func checkSummary(body []byte, k key, want ...summary) error {
	var got summary
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("/cluster %s: decoding: %w", k, err)
	}
	for _, w := range want {
		if got == w {
			return nil
		}
	}
	return fmt.Errorf("/cluster %s: got %+v, want %+v", k, got, want)
}

// scrape reads the server's /metrics document.
type metricsDoc map[string]any

func scrape(c *http.Client, base string) (metricsDoc, error) {
	body, err := get(c, base+"/metrics")
	if err != nil {
		return nil, err
	}
	var m metricsDoc
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	return m, nil
}

// num returns a counter or gauge value, or the given field of a histogram
// object ("count" or "sum"); log2-bucketed histogram quantiles are never
// used.
func (m metricsDoc) num(name string, field ...string) float64 {
	v := m[name]
	if len(field) > 0 {
		h, _ := v.(map[string]any)
		v = h[field[0]]
	}
	f, _ := v.(float64)
	return f
}

// delta returns b − a for one metric.
func delta(a, b metricsDoc, name string, field ...string) float64 {
	return b.num(name, field...) - a.num(name, field...)
}

// slots returns n due offsets, one per equal slot of span, each at a
// seeded point in the middle half of its slot: arrivals never depend on
// the server's progress (open loop), and no two fall closer than half a
// slot, so queueing comes from the server rather than from bursts in the
// schedule.
func slots(rng *rand.Rand, n int, span time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	width := float64(span) / float64(n)
	for i := range out {
		out[i] = time.Duration((float64(i) + 0.25 + 0.5*rng.Float64()) * width)
	}
	return out
}
