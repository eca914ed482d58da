// Command cdeserver runs the CDE authoritative nameserver infrastructure
// over UDP: it serves prober-controlled zones (from RFC 1035 master files
// or a generated cache.example setup) and prints the query log — the
// observation point of every CDE technique. With -api it also hosts the
// campaign engine: an HTTP control plane that schedules scenario files as
// standing measurement campaigns (see internal/campaign and DESIGN.md §13).
//
// Usage:
//
//	cdeserver -addr 0.0.0.0:5353 -zone parent.zone -zone child.zone
//	cdeserver -addr 127.0.0.1:5353 -generate cache.example -probes 50
//	cdeserver -generate cache.example -api 127.0.0.1:8080 -results ./campaigns
//
// With -generate the server synthesises the paper's two-zone setup (a
// parent with a delegated sub zone and CNAME-chain aliases) so a scan can
// start without hand-written zone files.
//
// Shutdown: SIGINT/SIGTERM drains gracefully — the campaign API stops
// accepting work, in-flight campaign runs finish (bounded by -drain),
// HTTP servers shut down without aborting in-flight requests, both DNS
// listeners close, and the final query-log summary prints. Every exit
// path after the listeners bind releases them.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dnscde/internal/authns"
	"dnscde/internal/campaign"
	"dnscde/internal/clock"
	"dnscde/internal/metrics"
	"dnscde/internal/netsim"
	"dnscde/internal/udpnet"
	"dnscde/internal/zone"
)

// httpShutdownTimeout bounds how long an HTTP server may spend finishing
// in-flight requests during shutdown before being closed hard.
const httpShutdownTimeout = 3 * time.Second

// zoneList collects repeated -zone flags.
type zoneList []string

func (z *zoneList) String() string { return strings.Join(*z, ",") }

// Set implements flag.Value.
func (z *zoneList) Set(v string) error {
	*z = append(*z, v)
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], clock.Real{}, os.Stdout, os.Stderr))
}

// run starts the server. The clock stamping log summaries is injected so
// tests can drive the logging path on virtual time; stdout/stderr are
// injected so lifecycle tests can assert on the startup banner and the
// final summary.
func run(args []string, clk clock.Clock, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cdeserver", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var zones zoneList
	fs.Var(&zones, "zone", "zone master file to serve (repeatable)")
	var (
		addr     = fs.String("addr", "127.0.0.1:5353", "UDP listen address")
		generate = fs.String("generate", "", "generate the paper's CDE zones under this origin instead of loading files")
		probeQ   = fs.Int("probes", 50, "number of probe records when generating zones")
		logEvery = fs.Duration("log-every", 10*time.Second, "interval for query-log summaries")
		dump     = fs.Bool("dump", false, "print the zones as master files and exit (use with -generate to export)")
		ctl      = fs.String("ctl", "", "enable the DNS control zone under this origin (e.g. ctl.cache.example)")
		mAddr    = fs.String("metrics", "", "HTTP address exporting the accounting snapshot as JSON (e.g. 127.0.0.1:9153); empty disables")
		apiAddr  = fs.String("api", "", "HTTP address for the campaign control plane (e.g. 127.0.0.1:8080); empty disables")
		results  = fs.String("results", "", "directory for campaign JSONL result files (default: a fresh temp dir)")
		shards   = fs.Int("shards", 1, "event-loop lanes per campaign run world; values below 1 mean one lane; results are identical at any value")
		workers  = fs.Int("workers", 0, "trial workers per campaign run (0 = GOMAXPROCS)")
		drain    = fs.Duration("drain", 10*time.Second, "campaign drain budget on shutdown before in-flight runs are cancelled")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *generate != "" && *ctl == "" {
		*ctl = "ctl." + *generate
	}

	loaded, err := loadZones(zones, *generate, *probeQ, *addr)
	if err != nil {
		fmt.Fprintf(stderr, "cdeserver: %v\n", err)
		return 1
	}
	if *dump {
		for _, z := range loaded {
			fmt.Fprintf(stdout, "; zone %s (%d records)\n%s\n", z.Origin(), z.Len(), z.Format())
		}
		return 0
	}
	var opts []authns.Option
	if *ctl != "" {
		opts = append(opts, authns.WithControlZone(*ctl))
		fmt.Fprintf(stdout, "control zone enabled: count.<name>.%s / egress.<suffix>.%s (TXT)\n", *ctl, *ctl)
	}
	reg := metrics.New()
	opts = append(opts, authns.WithMetrics(reg))
	srv := authns.NewServer(loaded, opts...)

	// The signal context exists before anything binds so a signal during
	// startup tears down through the same deferred path as a drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	udp := udpnet.NewServer(srv)
	bound, err := udp.Listen(*addr)
	if err != nil {
		fmt.Fprintf(stderr, "cdeserver: %v\n", err)
		return 1
	}
	// From here on every exit path runs the same teardown, LIFO: campaign
	// API + engine drain, metrics shutdown, TCP close, UDP close, then
	// the final query-log summary. That is the fix for the historical
	// leaks where a TCP-bind or metrics-bind failure returned with the
	// earlier listeners still open and a UDP serve error skipped the
	// summary and left TCP running.
	defer printSummary(stdout, srv)
	defer udp.Close()

	// TCP on the same port for oversize (truncated) responses.
	tcp := udpnet.NewTCPServer(srv)
	if _, err := tcp.Listen(bound.String()); err != nil {
		fmt.Fprintf(stderr, "cdeserver: tcp: %v\n", err)
		return 1
	}
	defer tcp.Close()

	for _, z := range loaded {
		fmt.Fprintf(stdout, "serving %-28s (%d records)\n", z.Origin(), z.Len())
	}
	fmt.Fprintf(stdout, "listening on %v (udp+tcp)\n", bound)

	if *mAddr != "" {
		maddr, ms, err := serveMetrics(reg, *mAddr, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "cdeserver: metrics: %v\n", err)
			return 1
		}
		defer shutdownHTTP(ms, stderr)
		fmt.Fprintf(stdout, "metrics snapshot on http://%v/metrics\n", maddr)
	}

	if *apiAddr != "" {
		engine, err := campaign.NewEngine(campaign.Options{
			Workers: *workers,
			Shards:  *shards,
			Dir:     *results,
			Service: reg,
			Clock:   clk,
		})
		if err != nil {
			fmt.Fprintf(stderr, "cdeserver: campaigns: %v\n", err)
			return 1
		}
		// Pick up campaigns a previous process left mid-flight (SIGTERM,
		// crash) before the API starts accepting new work.
		resumed, err := engine.Resume()
		if err != nil {
			fmt.Fprintf(stderr, "cdeserver: campaigns: %v\n", err)
			return 1
		}
		if len(resumed) > 0 {
			fmt.Fprintf(stdout, "resumed %d interrupted campaign(s)\n", len(resumed))
		}
		aaddr, as, err := serveAPI(engine, *apiAddr, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "cdeserver: campaigns: %v\n", err)
			return 1
		}
		defer drainCampaigns(engine, as, *drain, stderr)
		fmt.Fprintf(stdout, "campaign API on http://%v/campaigns (results in %s)\n", aaddr, engine.Dir())
	}

	go summarize(ctx, srv, *logEvery, clk, stdout)

	// Both DNS listeners serve concurrently; the first serve error or the
	// first signal ends the process through the shared teardown above.
	errc := make(chan error, 2)
	go func() { errc <- udp.Serve(ctx) }()
	go func() { errc <- tcp.Serve(ctx) }()
	return waitServe(ctx, errc, stdout, stderr)
}

// waitServe blocks until the first DNS serve error or a shutdown signal.
// A signal is the clean exit (0); a serve error exits 1. Either way the
// caller's deferred teardown closes both listeners and prints the final
// summary.
func waitServe(ctx context.Context, errc <-chan error, stdout, stderr io.Writer) int {
	select {
	case <-ctx.Done():
		fmt.Fprintf(stdout, "\nshutting down: signal received\n")
		return 0
	case err := <-errc:
		if err != nil {
			fmt.Fprintf(stderr, "cdeserver: %v\n", err)
			return 1
		}
		return 0
	}
}

// drainCampaigns winds the campaign layer down: the API stops accepting
// submissions, in-flight runs get the drain budget to finish, and only
// then is the engine hard-closed if it is still busy.
func drainCampaigns(e *campaign.Engine, as *http.Server, budget time.Duration, stderr io.Writer) {
	shutdownHTTP(as, stderr)
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		fmt.Fprintf(stderr, "cdeserver: campaign drain: %v\n", err)
		e.Close()
	}
}

// shutdownHTTP stops an HTTP server without aborting in-flight requests:
// graceful Shutdown under a short deadline, hard Close only if the
// deadline expires.
func shutdownHTTP(hs *http.Server, stderr io.Writer) {
	ctx, cancel := context.WithTimeout(context.Background(), httpShutdownTimeout)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "cdeserver: http shutdown: %v\n", err)
		hs.Close()
	}
}

// loadZones parses master files, or generates the CDE zone pair.
func loadZones(files zoneList, generate string, probeQ int, addr string) ([]*zone.Zone, error) {
	if generate != "" {
		host, err := netip.ParseAddrPort(expandAddr(addr))
		if err != nil {
			return nil, fmt.Errorf("parsing -addr: %w", err)
		}
		self := host.Addr()
		target := netsim.MustAddr("192.0.2.80")
		hier, err := zone.BuildHierarchy(generate, probeQ, target, self, self, 300)
		if err != nil {
			return nil, err
		}
		chain, err := zone.BuildCNAMEChain("chain."+generate, probeQ, target, self, 300)
		if err != nil {
			return nil, err
		}
		return []*zone.Zone{hier.Parent, hier.Child, chain}, nil
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no zones: pass -zone files or -generate origin")
	}
	out := make([]*zone.Zone, 0, len(files))
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		z, parseErr := zone.Parse(f, "")
		closeErr := f.Close()
		if parseErr != nil {
			return nil, fmt.Errorf("parsing %s: %w", path, parseErr)
		}
		if closeErr != nil {
			return nil, closeErr
		}
		if err := z.Validate(); err != nil {
			return nil, fmt.Errorf("zone %s: %w", path, err)
		}
		out = append(out, z)
	}
	return out, nil
}

// expandAddr turns ":5353" into "0.0.0.0:5353" so it parses as AddrPort.
func expandAddr(addr string) string {
	if strings.HasPrefix(addr, ":") {
		return "0.0.0.0" + addr
	}
	return addr
}

// serveMetrics exports the accounting registry over HTTP, expvar-style:
// GET /metrics returns the full snapshot as JSON. The returned server is
// the teardown handle (shutdownHTTP); the bound address is returned so
// callers (and tests using port 0) know where it landed.
func serveMetrics(reg *metrics.Registry, addr string, stderr io.Writer) (net.Addr, *http.Server, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reg.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return serveHTTP(mux, addr, "metrics", stderr)
}

// serveAPI hosts the campaign control plane.
func serveAPI(e *campaign.Engine, addr string, stderr io.Writer) (net.Addr, *http.Server, error) {
	return serveHTTP(campaign.NewAPI(e), addr, "campaigns", stderr)
}

// serveHTTP binds addr and serves handler in the background, returning
// the bound address and the server as its shutdown handle.
func serveHTTP(handler http.Handler, addr, name string, stderr io.Writer) (net.Addr, *http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	hs := &http.Server{Handler: handler}
	go func() {
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(stderr, "cdeserver: %s: %v\n", name, err)
		}
	}()
	return ln.Addr(), hs, nil
}

// summarize prints the query-log state periodically. Timestamps come from
// the injected clock; only the flush cadence itself is wall-clock.
func summarize(ctx context.Context, srv *authns.Server, every time.Duration, clk clock.Clock, stdout io.Writer) {
	if every <= 0 {
		return
	}
	//cdelint:allow walltime the periodic flush cadence of a live server is wall-clock by design
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	last := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			n := srv.Log().Len()
			if n != last {
				fmt.Fprintf(stdout, "[%s] %d queries observed (%d distinct sources)\n",
					clk.Now().Format(time.TimeOnly), n, len(srv.Log().DistinctSources("")))
				last = n
			}
		}
	}
}

// printSummary dumps the final log statistics on shutdown.
func printSummary(stdout io.Writer, srv *authns.Server) {
	log := srv.Log()
	fmt.Fprintf(stdout, "\nfinal query log: %d queries\n", log.Len())
	byType := log.CountByType("")
	for t, c := range byType {
		fmt.Fprintf(stdout, "  %-6v %d\n", t, c)
	}
	fmt.Fprintf(stdout, "distinct sources (egress IPs): %v\n", log.DistinctSources(""))
}
