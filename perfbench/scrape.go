package main

import (
	"bufio"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// scrape reads a server's Prometheus exposition (GET /metrics) into a map
// from series (name plus any label set) to value.
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", base, resp.Status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: bad sample %q", base, line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// metricDiff is the change of scraped series over a run.
type metricDiff map[string]float64

// scrapeBefore scrapes every node of fx, as the base scrapeDiffs measures
// from.
func scrapeBefore(fx *fixture) error {
	fx.before = fx.before[:0]
	for _, n := range fx.nodes {
		m, err := scrape(n.base)
		if err != nil {
			return err
		}
		fx.before = append(fx.before, m)
	}
	return nil
}

// scrapeDiffs scrapes every node of fx again and returns, per node, the
// change since scrapeBefore.
func scrapeDiffs(fx *fixture) ([]metricDiff, error) {
	out := make([]metricDiff, len(fx.nodes))
	for i, n := range fx.nodes {
		after, err := scrape(n.base)
		if err != nil {
			return nil, err
		}
		out[i] = metricDiff{}
		for k, v := range after {
			out[i][k] = v - fx.before[i][k]
		}
	}
	return out, nil
}

// sumDiffs adds the changes of several nodes.
func sumDiffs(ds []metricDiff) metricDiff {
	total := metricDiff{}
	for _, d := range ds {
		for k, v := range d {
			total[k] += v
		}
	}
	return total
}

// hist returns a histogram's observation count and its sum in milliseconds.
func (d metricDiff) hist(name string) (count, sumMS float64) {
	return d[name+"_count"], d[name+"_sum"] * 1e3
}

// meanMS is a histogram's mean observation in milliseconds (0 when the
// histogram saw nothing over the run).
func (d metricDiff) meanMS(name string) float64 {
	n, sum := d.hist(name)
	if n == 0 {
		return 0
	}
	return sum / n
}
