package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
)

// runIndex implements the `stochsched index` subcommand: it reads one
// /v1/index request body and runs it through pkg/client against an
// in-process service handler — the same handler and registry path as
// POST /v1/index, so the printed body is byte-identical to the daemon's
// response.
func runIndex(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("index", flag.ExitOnError)
	file := fs.String("f", "-", "index request file (JSON; \"-\" = stdin)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), `usage: stochsched index [-f request.json]

Computes one index request in-process — the same JSON POST /v1/index
accepts, the same response body. "stochsched scenarios" lists the kinds
that serve an index family.`)
		fs.PrintDefaults()
	}
	fs.Parse(args)

	raw, err := readInput(*file)
	if err == nil {
		raw, err = localClient(0).IndexRaw(context.Background(), raw)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	stdout.Write(raw)
	return 0
}
