package main

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"loki/internal/engine"
	"loki/internal/ingress"
	"loki/internal/metrics"
)

// live-http: one traffic-analysis pipeline on 60 servers on the wall-clock
// engine (TimeScale 1, admission on), served over loopback HTTP by the
// ingress server, under an open-loop Poisson load plus a 1 Hz /metrics
// scrape.
const (
	liveServers = 60
	liveRate    = 2000.0 // qps after the warm-up ramp
	// liveRamp is the head of the warm-up over which the load ramps from
	// half of liveRate; the rest of the warm-up lets the plan settle.
	liveRamp = time.Second
	// liveSetups is how many times a run stands the stack up, for a median
	// set-up time.
	liveSetups = 3
	// liveTail is the reported completion-latency percentile; the p99
	// moved by about half between runs.
	liveTail = 0.9
	// maxLagP99 is how far behind schedule the generator may run at p99
	// over the measured window before the run is invalid: past it, the
	// offered load is no longer the schedule's. Healthy runs lag ~2 ms.
	maxLagP99 = 50 * time.Millisecond
)

// liveSenders bounds the generator's sender goroutines and connections:
// two, or fewer on a host with fewer CPUs.
var liveSenders = min(2, runtime.NumCPU())

// sent is one request as the generator saw it, in offsets from the
// schedule's start.
type sent struct {
	due, start, done time.Duration
	status           int // 0 on a transport error
}

// liveSession is one served stretch: set-up, warm-up ramp, measured window.
type liveSession struct {
	setup   []float64
	reqs    []sent
	scrapes []float64 // ms
	bytes   []float64
	series  float64
	cpu     float64 // process CPU in the window
	// cpuMarks is process CPU at each whole second of the window.
	cpuMarks []float64
	window   [2]time.Duration
	engOff   float64 // engine time at schedule start
	st       *stack
	stats    engine.Stats
	wall     int64
	accepted int64
	shed     int64
	errs     int64
}

func runLiveSession(seed int64, rec *recorder, setups int, warm, dur time.Duration) (*liveSession, error) {
	ls := &liveSession{window: [2]time.Duration{warm, warm + dur}}
	for k := 0; k < setups; k++ {
		cpu0 := cpuSeconds()
		sp := rec.begin("bench.setup", -1, int64(k))
		st, err := buildStack(stackConfig{kind: engine.KindWallclock, servers: liveServers, seed: seed,
			bucketSec: 1, admission: true, timeScale: 1, openQPS: liveRate}, rec)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		ls.setup = append(ls.setup, cpuSeconds()-cpu0)
		ls.st = st
	}
	st := ls.st
	if err := st.eng.Start(st.control); err != nil {
		return nil, err
	}
	front := ingress.NewServer(ingress.ServerConfig{
		Pipelines: []string{tenantName},
		Submit:    submitSeam(st.submit, rec),
		Snapshot:  func(string) (any, error) { return st.eng.Stats(0), nil },
		Metrics:   func(w io.Writer) { st.reg.WritePrometheus(w) },
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.eng.Stop()
		return nil, err
	}
	srv := &http.Server{Handler: handlerSeam(front, rec)}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	genErr := ls.generate(seed, "http://"+ln.Addr().String(), warm, dur)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	shutErr := srv.Shutdown(ctx)
	cancel()
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		shutErr = errors.Join(shutErr, err)
	}
	stopErr := st.eng.Stop()
	if rec != nil {
		ls.wall = rec.now()
	}
	ls.stats = st.eng.Stats(0)
	return ls, errors.Join(genErr, shutErr, stopErr)
}

// generate runs the open-loop schedule: liveSenders goroutines take
// requests in due order over at most liveSenders connections, each timed
// from its due time; a third goroutine scrapes /metrics once a second.
// The main goroutine reads process CPU at each second of the window.
func (ls *liveSession) generate(seed int64, base string, warm, dur time.Duration) error {
	sched := poissonSchedule(seed, liveRate, liveRamp, warm+dur)
	ls.reqs = make([]sent, len(sched))
	tr := &http.Transport{MaxConnsPerHost: liveSenders, MaxIdleConnsPerHost: liveSenders}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	url := base + "/v1/" + tenantName + "/infer"

	start := time.Now()
	ls.engOff = ls.st.eng.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < liveSenders; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sched) {
					return
				}
				if d := time.Until(start.Add(sched[i])); d > 0 {
					time.Sleep(d)
				}
				r := sent{due: sched[i], start: time.Since(start)}
				r.status = post(client, url, i)
				r.done = time.Since(start)
				ls.reqs[i] = r
			}
		}()
	}
	stopScrape := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-stopScrape:
				return
			case <-t.C:
				t0 := time.Now()
				n, err := get(client, base+"/metrics")
				if err == nil {
					ls.scrapes = append(ls.scrapes, float64(time.Since(t0).Nanoseconds())/1e6)
					ls.bytes = append(ls.bytes, float64(len(n)))
					ls.series = float64(exposedSeries(n))
				}
			}
		}
	}()
	for at := warm; at <= warm+dur; at += time.Second {
		time.Sleep(time.Until(start.Add(at)))
		ls.cpuMarks = append(ls.cpuMarks, cpuSeconds())
	}
	ls.cpu = ls.cpuMarks[len(ls.cpuMarks)-1] - ls.cpuMarks[0]
	wg.Wait()
	close(stopScrape)
	<-scraped
	for _, r := range ls.reqs {
		switch r.status {
		case http.StatusAccepted:
			ls.accepted++
		case http.StatusTooManyRequests:
			ls.shed++
		default:
			ls.errs++
		}
	}
	return nil
}

// post sends one infer request and returns its status (0 on a transport
// error), reading the body so the connection is reused.
func post(c *http.Client, url string, id int) int {
	req, err := http.NewRequest(http.MethodPost, url, nil)
	if err != nil {
		return 0
	}
	req.Header.Set(requestIDHeader, strconv.Itoa(id))
	resp, err := c.Do(req)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0
	}
	return resp.StatusCode
}

func get(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, errors.New(resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// inWindow returns the requests due inside the measured window.
func (ls *liveSession) inWindow() []sent {
	var out []sent
	for _, r := range ls.reqs {
		if r.due >= ls.window[0] && r.due < ls.window[1] {
			out = append(out, r)
		}
	}
	return out
}

// check is live-http's output check: the client's and the server's counts
// agree, nothing failed, the engine drained, and the generator kept to
// its schedule in the measured window.
func (ls *liveSession) check(o *outcome) {
	sum := ls.st.col.Summarize()
	o.check(ls.accepted == int64(sum.Admitted), "client saw %d accepted, server admitted %d", ls.accepted, sum.Admitted)
	o.check(ls.shed == int64(sum.Shed), "client saw %d shed, server shed %d", ls.shed, sum.Shed)
	o.check(ls.errs == 0, "%d requests failed (transport error or 5xx)", ls.errs)
	inflight := ls.stats.Injected - ls.stats.Completed - ls.stats.Dropped
	o.check(inflight == 0, "%d requests still in flight after Stop", inflight)
	lag := quantile(lagsMS(ls.inWindow()), 0.99)
	o.check(lag <= float64(maxLagP99.Milliseconds()), "generator ran %.1f ms behind schedule at p99 (bound %v)", lag, maxLagP99)
	o.attempted += int64(len(ls.reqs))
	o.failed += ls.errs
}

// lagsMS returns how far behind schedule each request was sent, in ms,
// ascending.
func lagsMS(reqs []sent) []float64 {
	lags := make([]float64, len(reqs))
	for i, r := range reqs {
		lags[i] = float64((r.start - r.due).Nanoseconds()) / 1e6
	}
	return sorted(lags)
}

// windowOutcomes reads the 1 s collector over the whole buckets inside
// the measured window: on-time answers over offered requests, and on-time
// completions per second.
func (ls *liveSession) windowOutcomes() (attainment, goodput float64) {
	lo := ls.engOff + ls.window[0].Seconds()
	hi := ls.engOff + ls.window[1].Seconds()
	var ontime, offered, good, n float64
	for _, p := range ls.st.col.Series() {
		if p.TimeSec < lo || p.TimeSec+1 > hi {
			continue
		}
		ontime += float64(p.Arrivals - p.Violations)
		offered += float64(p.Arrivals + p.Shed)
		good += p.GoodputQPS
		n++
	}
	return ratio(ontime, offered), ratio(good, n)
}

// perSecond splits the window into whole seconds by due time and returns,
// for each second, the round trips timed from due time (ms, ascending) and
// the process CPU per request sent (us). The figures are the medians of
// these, so a brief stall of the host moves one second, not the figure.
func (ls *liveSession) perSecond() (lat [][]float64, cpuPerReq []float64) {
	n := len(ls.cpuMarks) - 1
	lat = make([][]float64, n)
	for _, r := range ls.reqs {
		k := int((r.due - ls.window[0]) / time.Second)
		if r.due < ls.window[0] || k >= n {
			continue
		}
		lat[k] = append(lat[k], float64((r.done-r.due).Nanoseconds())/1e6)
	}
	for k := range lat {
		lat[k] = sorted(lat[k])
		cpuPerReq = append(cpuPerReq, 1e6*ratio(ls.cpuMarks[k+1]-ls.cpuMarks[k], float64(len(lat[k]))))
	}
	return lat, cpuPerReq
}

func runLive(rc runCtx) (*outcome, error) {
	o := newOutcome()
	total := time.Duration(rc.seconds * float64(time.Second))
	if !rc.trace {
		warm := min(4*time.Second, total/3)
		ls, err := runLiveSession(rc.seed, nil, liveSetups, warm, total-warm)
		if err != nil {
			return nil, err
		}
		ls.check(o)
		win := ls.inWindow()
		_, cpu := ls.perSecond()
		att, _ := ls.windowOutcomes()
		sum := ls.st.col.Summarize()
		v := o.values
		v["setup_s"] = median(ls.setup)
		v["op_p50_ms"] = 1000 * histQuantile(sum.LatencyHistogram, metrics.LatencyBounds, 0.5)
		v["op_tail_ms"] = 1000 * histQuantile(sum.LatencyHistogram, metrics.LatencyBounds, liveTail)
		v["slo_attainment"] = att
		v["accuracy"] = sum.MeanAccuracy
		v["mean_servers"] = sum.MeanServers
		v["cpu_us_per_op"] = median(cpu)
		o.note("live-http: %d requests (%d in window), %d accepted, %d shed; setup %.2f s median",
			len(ls.reqs), len(win), ls.accepted, ls.shed, v["setup_s"])
		return o, nil
	}

	// Traced: half the time untraced for the overhead baseline, half traced.
	half := total / 2
	warm := min(3*time.Second, half/3)
	plain, err := runLiveSession(rc.seed, nil, 1, warm, half-warm)
	if err != nil {
		return nil, err
	}
	plain.check(o)
	proc := startProc()
	rec := newRecorder()
	ls, err := runLiveSession(rc.seed, rec, 1, warm, half-warm)
	if err != nil {
		return nil, err
	}
	ls.check(o)
	v := o.values
	proc.finish(v)
	spans, counts := rec.snapshot()
	controlLayers(spans, counts, ls.wall, v)
	liveLayers(ls, spans, v)
	v["trace.overhead"] = ratio(ls.cpu/float64(len(ls.inWindow())), plain.cpu/float64(len(plain.inWindow()))) - 1
	o.note("live-http traced: blocking path client -> net (%.1f%% of round trips unattributed) -> ingress.handler (self %.0f us p50) -> live.submit (%.0f us p50); control plane off the request path (core %.1f%% of wall, ingress+net %.1f%%); tracing overhead %+.1f%% of cpu_us_per_op",
		100*v["trace.unattributed_share"], v["ingress.self_us_p50"], v["live.submit_us_p50"],
		100*v["core.wall_share"], 100*(v["ingress.wall_share"]), 100*v["trace.overhead"])
	if err := writeSpans(tracePath(rc), spans, counts, o.notes); err != nil {
		o.note("writing spans: %v", err)
	}
	return o, nil
}

// liveLayers derives the ingress, live-engine, telemetry and generator
// metrics of a traced live session.
func liveLayers(ls *liveSession, spans []span, v map[string]float64) {
	self := selfTimes(spans)
	handler := map[int64]int64{} // request id -> handler ns
	var handlerUS, selfUS, submitUS []float64
	var handlerNS int64
	for i, s := range spans {
		switch {
		case s.Name == "ingress.handler" && s.ID >= 0:
			handler[s.ID] = s.dur()
			handlerNS += s.dur()
			handlerUS = append(handlerUS, float64(s.dur())/1e3)
			selfUS = append(selfUS, float64(self[i])/1e3)
		case s.Name == "live.submit":
			submitUS = append(submitUS, float64(s.dur())/1e3)
		}
	}
	var netUS, rttMS []float64
	var rttNS, netNS int64
	for id, r := range ls.reqs {
		rtt := r.done - r.start
		rttMS = append(rttMS, float64(rtt.Nanoseconds())/1e6)
		if h, ok := handler[int64(id)]; ok {
			net := rtt.Nanoseconds() - h
			netUS = append(netUS, float64(net)/1e3)
			rttNS += rtt.Nanoseconds()
			netNS += net
		}
	}
	handlerUS, selfUS, submitUS, netUS, rttMS = sorted(handlerUS), sorted(selfUS), sorted(submitUS), sorted(netUS), sorted(rttMS)
	v["ingress.requests"] = float64(len(handlerUS))
	v["ingress.shed_share"] = ratio(float64(ls.shed), float64(ls.accepted+ls.shed))
	v["ingress.handler_us_p50"] = quantile(handlerUS, 0.5)
	v["ingress.handler_us_p99"] = quantile(handlerUS, 0.99)
	v["ingress.self_us_p50"] = quantile(selfUS, 0.5)
	v["ingress.net_us_p50"] = quantile(netUS, 0.5)
	v["ingress.rtt_ms_p99"] = quantile(rttMS, 0.99)
	v["ingress.wall_share"] = ratio(float64(handlerNS+netNS), float64(ls.wall))
	v["live.submit_us_p50"] = quantile(submitUS, 0.5)
	v["live.submit_us_p99"] = quantile(submitUS, 0.99)
	for _, st := range ls.st.tracer.StageSummary() {
		v["live."+st.Stage+".queue_ms_p50"] = st.QueueP50 * 1000
		v["live."+st.Stage+".exec_ms_p50"] = st.ExecP50 * 1000
		v["live."+st.Stage+".batch_mean"] = st.MeanBatch
	}
	v["live.e2e_p99_ms"] = ls.st.col.Summarize().LatencyP99 * 1000
	_, v["live.goodput_qps"] = ls.windowOutcomes()
	// On the request path the untraced part is the network: client,
	// transport and kernel time around the handler.
	v["trace.unattributed_share"] = ratio(float64(netNS), float64(rttNS))
	v["telemetry.scrape_ms_p50"] = median(ls.scrapes)
	v["telemetry.scrape_bytes"] = median(ls.bytes)
	v["telemetry.series"] = ls.series
	lags := lagsMS(ls.reqs)
	v["gen.sent"] = float64(len(ls.reqs))
	lat, _ := ls.perSecond()
	var p50, p90 []float64
	for _, l := range lat {
		p50, p90 = append(p50, quantile(l, 0.5)), append(p90, quantile(l, 0.9))
	}
	v["gen.http_p50_ms"] = median(p50)
	v["gen.http_p90_ms"] = median(p90)
	v["gen.lag_ms_p99"] = quantile(lags, 0.99)
	if len(lags) > 0 {
		v["gen.lag_ms_max"] = lags[len(lags)-1]
	}
}
