package telemetry

import (
	"flag"
	"fmt"
	"os"
)

// CLI bundles the shared observability flags every command registers:
//
//	-telemetry          enable metric collection + end-of-run summary
//	-timeline FILE      export a Chrome trace-event timeline (implies -telemetry)
//	-serve ADDR         expose /metrics and /debug/pprof (implies -telemetry)
//
// Usage: c := telemetry.NewCLI() before flag.Parse, c.Start() after, and
// defer c.Finish() (or call it explicitly before exiting).
type CLI struct {
	enabled  bool
	timeline string
	serve    string

	tl  *Timeline
	srv *Server
}

// NewCLI registers the telemetry flags on the default flag set.
func NewCLI() *CLI {
	c := &CLI{}
	flag.BoolVar(&c.enabled, "telemetry", false, "collect pipeline telemetry and print a summary on exit")
	flag.StringVar(&c.timeline, "timeline", "", "write a Chrome trace-event timeline (Perfetto) to `file`; implies -telemetry")
	flag.StringVar(&c.serve, "serve", "", "serve /metrics and /debug/pprof on `addr` (e.g. :8080); implies -telemetry")
	return c
}

// Start applies the parsed flags: enables collection, creates the timeline,
// and starts the HTTP endpoint. Call after flag.Parse.
func (c *CLI) Start() error {
	if c.timeline != "" || c.serve != "" {
		c.enabled = true
	}
	if !c.enabled {
		return nil
	}
	Default.Reset()
	Enable()
	if c.timeline != "" {
		c.tl = NewTimeline()
	}
	if c.serve != "" {
		srv, err := Serve(c.serve)
		if err != nil {
			return err
		}
		c.srv = srv
		fmt.Fprintf(os.Stderr, "telemetry: serving metrics on http://%s/metrics (pprof under /debug/pprof/)\n", srv.Addr())
	}
	return nil
}

// Timeline returns the timeline created for -timeline, or nil.
func (c *CLI) Timeline() *Timeline { return c.tl }

// CaptureRegions routes wall-clock region spans onto the -timeline output.
// Commands whose interesting axis is pipeline stages (benchgen, experiments)
// call this; commands exporting a simulated run's virtual time (tracegen,
// ncrun) feed rank tracks through the runtime's tracer instead.
func (c *CLI) CaptureRegions() {
	if c.tl != nil {
		CaptureRegions(c.tl)
	}
}

// Finish writes the timeline file (if requested) and prints the metric
// summary to stderr, then shuts down the HTTP endpoint.
func (c *CLI) Finish() error {
	if !c.enabled {
		return nil
	}
	CaptureRegions(nil)
	var err error
	if c.timeline != "" && c.tl != nil {
		var f *os.File
		f, err = os.Create(c.timeline)
		if err == nil {
			err = c.tl.WriteChrome(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err == nil {
				fmt.Fprintf(os.Stderr, "telemetry: wrote %d spans to %s (open in ui.perfetto.dev)\n",
					c.tl.SpanCount(), c.timeline)
			}
		}
	}
	Default.Snapshot().WriteSummary(os.Stderr)
	if c.srv != nil {
		c.srv.Close()
		c.srv = nil
	}
	return err
}
