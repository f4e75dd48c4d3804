package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pmemgo/xfdetector/internal/serve"
	"github.com/pmemgo/xfdetector/internal/vcache"
)

// fleetArgs is the campaign `xfdetector -submit URL -workload btree -init 3
// -test 80 -patch btree-skip-add-leaf` sends: the flags the user set, in
// the -name=value form and flag.Visit order the CLI forwards. The CLI has
// no seed flag, so the fleet workload ignores -seed.
var fleetArgs = []string{"-init=3", "-patch=btree-skip-add-leaf", "-test=80", "-workload=btree"}

const (
	fleetShards  = 2
	fleetWorkers = 2
	// fleetPoll is the worker lease poll and the campaign status poll: far
	// below campaign time, so polling does not quantize the measurement.
	fleetPoll = 5 * time.Millisecond
)

// daemon is one campaign's serve.Server with its own workdir and verdict
// cache, so every campaign starts cold and does identical work.
type daemon struct {
	srv     *serve.Server
	handler http.Handler
	cache   *vcache.Cache
	dir     string
}

// fleet runs campaigns on an in-process serve.Server over a loopback
// listener, with serve.Worker loops executing the xfdetector binary.
type fleet struct {
	exe    string
	dir    string
	http   *http.Server
	client *serve.Client
	cur    atomic.Pointer[daemon]
	stop   context.CancelFunc
	wg     sync.WaitGroup
	n      int

	// ref is the same program in-process: it pins the keys the merged
	// report must equal and drives the in-process layer drivers.
	ref *inproc

	tr         *tracer
	tracing    atomic.Bool
	root       atomic.Int64 // traced campaign's root span
	campaignID atomic.Int64
}

func newFleet(exe, dir string) (*fleet, error) {
	if exe == "" {
		return nil, errors.New("fleet workload needs -xfdetector (the shard binary)")
	}
	ref, err := newInproc(insertBugShape, 0, dir)
	if err != nil {
		return nil, err
	}
	return &fleet{exe: exe, dir: dir, ref: ref, tr: ref.tr}, nil
}

// setup starts the listener and the worker loops and runs one warm-up
// campaign.
func (f *fleet) setup() error {
	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	f.http = &http.Server{Handler: f}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		f.http.Serve(ln)
	}()
	url := "http://" + ln.Addr().String()
	f.client = &serve.Client{BaseURL: url}
	ctx, stop := context.WithCancel(context.Background())
	f.stop = stop
	for i := 0; i < fleetWorkers; i++ {
		w := &serve.Worker{
			Client:         &serve.Client{BaseURL: url},
			ID:             fmt.Sprintf("w%d", i),
			Exe:            f.exe,
			Poll:           fleetPoll,
			HeartbeatEvery: time.Second,
			Grace:          5 * time.Second,
			Output:         io.Discard,
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			w.Run(ctx)
		}()
	}
	_, err = f.run(false, nil)
	return err
}

// close stops the workers (their shard children are terminated and
// reaped by Worker.Run) and the HTTP server, and waits for all of them.
func (f *fleet) close() {
	if f.stop != nil {
		f.stop()
	}
	if f.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		f.http.Shutdown(ctx)
		cancel()
	}
	f.wg.Wait()
	if d := f.cur.Load(); d != nil {
		d.cache.Close()
	}
}

// ServeHTTP routes to the current campaign's daemon; while tracing, each
// request is a span named after its endpoint.
func (f *fleet) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	d := f.cur.Load()
	if d == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	if !f.tracing.Load() {
		d.handler.ServeHTTP(w, r)
		return
	}
	rec := &recorder{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	d.handler.ServeHTTP(rec, r)
	end := time.Now()
	name, note := endpoint(r), ""
	switch name {
	case "serve.acquire":
		if rec.status == http.StatusOK {
			var g serve.LeaseGrant
			if json.Unmarshal(rec.body, &g) == nil {
				note = g.Lease
			}
		}
	case "serve.done":
		note = leaseOf(r.URL.Path)
	}
	f.tr.add(name, int(f.root.Load()), int(f.campaignID.Load()), start, end, note)
}

// recorder captures a response's status and, for lease grants, its body.
type recorder struct {
	http.ResponseWriter
	status int
	body   []byte
}

func (r *recorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *recorder) Write(p []byte) (int, error) {
	if len(r.body) < 4096 {
		r.body = append(r.body, p...)
	}
	return r.ResponseWriter.Write(p)
}

// endpoint names a daemon API call for its span.
func endpoint(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/lease":
		return "serve.acquire"
	case strings.HasPrefix(p, "/leases/"):
		return "serve." + p[strings.LastIndexByte(p, '/')+1:]
	case strings.HasPrefix(p, "/campaigns/"):
		return "serve.status"
	case p == "/campaigns":
		return "serve.submit"
	}
	return "serve.other"
}

// leaseOf extracts the lease id from /leases/{id}/...
func leaseOf(p string) string {
	rest := strings.TrimPrefix(p, "/leases/")
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		return rest[:i]
	}
	return rest
}

// record is the daemon's record-once launcher: it runs the xfdetector
// binary with -record into the campaign directory, as `xfdetector -serve`
// does.
func (f *fleet) record(dir string, args []string) (string, error) {
	start := time.Now()
	path := filepath.Join(dir, "campaign.xfdr")
	full := append(append([]string{}, args...), "-record", path)
	encoded, err := json.Marshal(full)
	if err != nil {
		return "", err
	}
	cmd := exec.Command(f.exe, full...)
	cmd.Env = append(os.Environ(), serve.ShardArgsEnv+"="+string(encoded))
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if err != nil && !(errors.As(err, &ee) && ee.ExitCode() == 1) {
		return "", fmt.Errorf("record child: %v: %s", err, out)
	}
	if f.tracing.Load() {
		f.tr.add("serve.record", int(f.root.Load()), int(f.campaignID.Load()), start, time.Now(), "")
	}
	return path, nil
}

// newDaemon makes the next campaign's daemon: a fresh workdir and an
// empty verdict cache.
func (f *fleet) newDaemon() (*daemon, error) {
	f.n++
	dir := filepath.Join(f.dir, fmt.Sprintf("c%04d", f.n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cache, err := vcache.Open(filepath.Join(dir, "verdicts.cache"))
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(dir, 30*time.Second)
	srv.Cache = cache
	srv.Record = f.record
	srv.Logf = func(string, ...any) {}
	return &daemon{srv: srv, handler: srv.Handler(), cache: cache, dir: dir}, nil
}

// run submits one campaign and waits for its merged report. The
// previous campaign's daemon is retired first; its directory is removed.
func (f *fleet) run(traced bool, layers samples) (outcome, error) {
	d, err := f.newDaemon()
	if err != nil {
		return outcome{}, err
	}
	if old := f.cur.Swap(d); old != nil {
		// The old daemon has no runnable campaign left; only idle lease
		// polls can still reach it, and Status orders them before the swap.
		old.srv.Status()
		old.cache.Close()
		os.RemoveAll(old.dir)
	}
	var root int
	if traced {
		f.campaignID.Store(int64(f.tr.nextCampaign()))
		root = f.tr.begin("fleet.campaign", -1, int(f.campaignID.Load()))
		f.root.Store(int64(root))
		f.tracing.Store(true)
	}
	start := time.Now()
	id, err := f.client.Submit(serve.CampaignSpec{Args: fleetArgs, Shards: fleetShards})
	if err != nil {
		return outcome{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	st, err := f.client.WaitDone(ctx, id, fleetPoll, nil)
	wall := time.Since(start)
	cancel()
	if traced {
		f.tracing.Store(false)
		f.tr.end(root)
	}
	if err != nil {
		return outcome{}, fmt.Errorf("waiting for campaign: %w", err)
	}
	out := outcome{wall: wall, fps: st.FailurePoints, unsettled: st.Buckets.Skipped + st.Buckets.Abandoned}
	if out.err = f.check(st); out.err != nil {
		out.unsettled = max(st.FailurePoints, f.ref.pinnedFPs)
	}
	if traced {
		f.serveLayers(root, layers)
	}
	return out, nil
}

// check is the fleet campaign's output check: the merged report is
// complete with the bucket identity, every shard finished on its first
// lease, the cache stayed cold, and the merged keys equal the in-process
// run of the same program.
func (f *fleet) check(st serve.CampaignStatus) error {
	if st.State != "done" || st.Incomplete {
		return fmt.Errorf("campaign %s ended %s (incomplete=%v %s %s)", st.ID, st.State, st.Incomplete, st.IncompleteReason, st.Failure)
	}
	b := st.Buckets
	if sum := b.PostRuns + b.Pruned + b.CrossShard + b.CacheHits + b.OtherShard + b.Resumed + b.Skipped; sum != st.FailurePoints {
		return fmt.Errorf("bucket identity broken: buckets sum to %d, %d failure points", sum, st.FailurePoints)
	}
	if b.CacheHits != 0 || st.CacheHits != 0 {
		return fmt.Errorf("verdict cache was warm: %d cache hits", max(b.CacheHits, st.CacheHits))
	}
	for _, sh := range st.ShardStates {
		if sh.Attempts != 1 || sh.ExitCode != 1 {
			return fmt.Errorf("shard %d: %d attempt(s), exit %d", sh.Index, sh.Attempts, sh.ExitCode)
		}
	}
	if err := checkAnswer(f.ref.fault, st.Keys); err != nil {
		return err
	}
	if f.ref.pinned == nil {
		return nil
	}
	if st.FailurePoints != f.ref.pinnedFPs {
		return fmt.Errorf("%d failure points, in-process run has %d", st.FailurePoints, f.ref.pinnedFPs)
	}
	if err := sameKeys(st.Keys, f.ref.pinned); err != nil {
		return fmt.Errorf("merged keys vs in-process run: %w", err)
	}
	return nil
}

// serveLayers derives the serve.* metrics of one traced campaign from its
// endpoint spans.
func (f *fleet) serveLayers(root int, layers samples) {
	c := f.tr.get(root)
	for _, ep := range []string{"artifact", "lines", "claim", "resolve"} {
		spans := f.tr.named(c.Campaign, "serve."+ep)
		layers.add("serve."+ep+"_s", sumDur(spans))
		if ep != "artifact" {
			layers.add("serve."+ep+"_n", float64(len(spans)))
		}
	}
	layers.add("serve.record_s", sumDur(f.tr.named(c.Campaign, "serve.record")))

	polls := f.tr.named(c.Campaign, "serve.acquire")
	granted := map[string]int64{}
	var lastGrant int64
	for _, s := range polls {
		if s.Note != "" {
			granted[s.Note] = s.End
			lastGrant = max(lastGrant, s.End)
		}
	}
	layers.add("serve.acquire_n", float64(len(polls)))
	layers.add("serve.grant_ratio", float64(len(granted))/float64(max(len(polls), 1)))
	layers.add("serve.lease_wait_s", time.Duration(lastGrant-c.Start).Seconds())

	var shardMax, lastDone int64
	for _, s := range f.tr.named(c.Campaign, "serve.done") {
		if g, ok := granted[s.Note]; ok {
			shardMax = max(shardMax, s.End-g)
		}
		lastDone = max(lastDone, s.End)
	}
	layers.add("serve.shard_max_s", time.Duration(shardMax).Seconds())
	layers.add("serve.merge_tail_s", time.Duration(c.End-lastDone).Seconds())
}

// campaign runs one timed fleet campaign.
func (f *fleet) campaign(traced bool, layers samples) outcome {
	out, err := f.run(traced, layers)
	if err != nil {
		return outcome{fps: f.ref.pinnedFPs, unsettled: f.ref.pinnedFPs, err: err}
	}
	return out
}

// pin runs the program in-process; its keys and failure-point count are
// what every merged fleet report must equal.
func (f *fleet) pin() error { return f.ref.pin() }

// layers runs the traced run's drivers: the in-process program (core
// spans, record, replay and the artifact-driven layers, fed the daemon's
// own recorded artifact) and the ckpt/vcache state the last campaign left
// in its daemon workdir.
func (f *fleet) layers(layers samples) error {
	r, err := f.ref.run(f.ref.config(), true)
	if err != nil {
		return err
	}
	if err := f.ref.check(r.res); err != nil {
		return err
	}
	f.ref.coreLayers(r.res, r.root, layers)
	d := f.cur.Load()
	campaignDir := filepath.Join(d.dir, "c1") // each daemon runs one campaign
	if err := stateLayers(campaignDir, filepath.Join(d.dir, "verdicts.cache"),
		vcache.Identity(fleetArgs...), f.ref.pinned, layers); err != nil {
		return err
	}
	if err := f.ref.recordLayer(filepath.Join(f.dir, "inproc.xfdr"), layers); err != nil {
		return err
	}
	if err := f.ref.modeLayers(layers); err != nil {
		return err
	}
	return f.ref.artifactLayers(filepath.Join(campaignDir, "campaign.xfdr"), layers)
}
