// Command gittins computes Gittins indices for a bandit project specified
// as JSON on stdin or via -file:
//
//	{
//	  "beta": 0.9,
//	  "transitions": [[0.5, 0.5], [0.2, 0.8]],
//	  "rewards": [1, 0.3]
//	}
//
// The spec is the canonical api.Bandit shape — the "bandit" payload POST
// /v1/index of the policy service accepts — and the command drives the
// service itself: the spec goes through pkg/client into an in-process
// service handler, so the CLI validates, hashes, and computes exactly like
// the daemon. It prints one
// line per state with the index computed independently by the
// restart-in-state and largest-index-first algorithms.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"stochsched/internal/service"
	"stochsched/pkg/api"
	"stochsched/pkg/client"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("gittins", flag.ContinueOnError)
	file := fs.String("file", "", "JSON file (default: stdin)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // usage already printed; a clean exit, not a failure
		}
		return err
	}

	var data []byte
	var err error
	if *file != "" {
		data, err = os.ReadFile(*file)
	} else {
		data, err = io.ReadAll(stdin)
	}
	if err != nil {
		return err
	}
	var sp api.Bandit
	if err := json.Unmarshal(data, &sp); err != nil {
		return fmt.Errorf("parsing spec: %w", err)
	}
	// The same request/validation/compute path as the daemon, in-process
	// (body cap lifted: the spec is a local file, not untrusted traffic).
	c := client.NewInProcess(service.New(service.Config{MaxBodyBytes: -1}).Handler())
	resp, err := c.Gittins(context.Background(), &sp)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "state  reward   gittins(restart)  gittins(largest-index)\n")
	for i := range resp.Restart {
		fmt.Fprintf(stdout, "%5d  %7.4f  %16.6f  %21.6f\n", i, sp.Rewards[i], resp.Restart[i], resp.Largest[i])
	}
	return nil
}
