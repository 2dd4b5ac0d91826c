// Operations: the full production-shaped job flow — the input graph is
// read from a file, the job runs with checkpointing and task stealing
// enabled, live progress is served over HTTP, and the results are written
// back to a file (the paper's load-from/dump-to-HDFS round trip, §5.1, on
// the local filesystem).
//
//	go run ./examples/operations
package main

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"gminer"
	"gminer/internal/algo"
	"gminer/internal/gen"
	"gminer/internal/graph"
	"gminer/internal/monitor"
)

func main() {
	dir, err := os.MkdirTemp("", "gminer-operations-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. Ingest: store the dataset as a text adjacency-list file.
	input := filepath.Join(dir, "orkut-s.adj")
	if err := graph.SaveFile(input, gen.MustBuild(gen.Orkut, 0.5)); err != nil {
		log.Fatal(err)
	}

	// 2. Load it the way a worker's graph loader does.
	g, err := graph.LoadFile(input)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d vertices / %d edges from %s\n", g.NumVertices(), g.NumEdges(), filepath.Base(input))

	// 3. Run maximum clique finding with the full production config.
	job, err := gminer.Start(g, algo.NewMaxClique(), gminer.Config{
		Workers:         4,
		Threads:         2,
		Stealing:        true,
		UseLSH:          true,
		CheckpointEvery: 20 * time.Millisecond,
		CheckpointDir:   filepath.Join(dir, "checkpoints"),
	})
	if err != nil {
		log.Fatal(err)
	}

	// 4. Serve live progress over HTTP while the job runs.
	mon := monitor.New(job)
	addr, err := mon.Start("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer mon.Stop()
	resp, err := http.Get("http://" + addr + "/status")
	if err != nil {
		log.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("live status from http://%s/status (%d bytes of JSON)\n", addr, len(body))

	res, err := job.Wait()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("max clique: %v (in %v, %d tasks, %d stolen)\n",
		res.AggGlobal, res.Elapsed, res.Total.TasksDone, res.Total.Stolen)

	// 5. Dump the results, one record per line, and read them back.
	output := filepath.Join(dir, "mcf.txt")
	if err := writeRecords(output, res.Records); err != nil {
		log.Fatal(err)
	}
	n, err := countLines(output)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d witness records to %s and read them back\n", n, filepath.Base(output))
}

func writeRecords(path string, records []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, r := range records {
		fmt.Fprintln(w, r)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func countLines(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		n++
	}
	return n, sc.Err()
}
