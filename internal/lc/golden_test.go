package lc

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "regenerate the LC pipeline golden file")

// goldenPath pins the wire bytes of every 3-stage pipeline. The search
// sizes pipelines with the same stage code that Apply runs, so comparing
// the two cannot catch a change both share; this file can. Regenerate
// deliberately with:
//
//	go test ./internal/lc -run TestPipelineGolden -update
var goldenPath = filepath.Join("testdata", "golden_pipelines.txt")

// goldenInputs are the fixed inputs hashed per pipeline: smooth float
// words, posit-like words, and a ragged copy of the float field whose
// three tail bytes every stage must carry through.
func goldenInputs() [][]byte {
	f := floatField(1024)
	return [][]byte{f, positLike(1024), f[:len(f)-1]}
}

// goldenLine renders one pipeline: its "a|b|c" string, then per golden
// input the first 8 bytes of the SHA-256 of Apply's output in hex. 64 bits
// per hash keep the file small while leaving accidental agreement of a
// drifted output out of reach.
func goldenLine(t *testing.T, p Pipeline, inputs [][]byte) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(p.String())
	for _, src := range inputs {
		out, err := p.Apply(src)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		sum := sha256.Sum256(out)
		b.WriteByte(' ')
		b.WriteString(hex.EncodeToString(sum[:8]))
	}
	return b.String()
}

// goldenPipelines lists every 3-stage pipeline in component-ID order.
func goldenPipelines() []Pipeline {
	lib := Components()
	var ps []Pipeline
	for _, a := range lib {
		for _, b := range lib {
			for _, c := range lib {
				ps = append(ps, Pipeline{Stages: []Component{a, b, c}})
			}
		}
	}
	return ps
}

func TestPipelineGolden(t *testing.T) {
	inputs := goldenInputs()
	pipes := goldenPipelines()
	if *updateGolden {
		var b strings.Builder
		b.WriteString("# LC pipeline golden file: pipeline sha256[:8](Apply(floatField(1024))) sha256[:8](Apply(positLike(1024))) sha256[:8](Apply(ragged floatField))\n")
		for _, p := range pipes {
			b.WriteString(goldenLine(t, p, inputs))
			b.WriteByte('\n')
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	file, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	defer file.Close()
	sc := bufio.NewScanner(file)
	i, bad := 0, 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i >= len(pipes) {
			t.Fatalf("golden file has more pipelines than the library (line %q)", line)
		}
		if got := goldenLine(t, pipes[i], inputs); got != line {
			t.Errorf("pipeline %d drifted:\n got %s\nwant %s", i, got, line)
			if bad++; bad == 10 {
				t.Fatal("too many drifted pipelines")
			}
		}
		i++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(pipes) {
		t.Fatalf("golden file has %d pipelines, library makes %d (regenerate with -update)", i, len(pipes))
	}
}
