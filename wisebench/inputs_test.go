package main

import (
	"bytes"
	"fmt"
	"testing"
)

// sequenceBytes flattens a workload's request sequence: every op's path,
// body and expected matrix, in order.
func sequenceBytes(ops []op) []byte {
	var all, buf bytes.Buffer
	for _, o := range ops {
		all.WriteString(o.Path)
		all.Write(o.body(&buf))
		all.WriteString(o.FP)
		all.WriteByte(byte(o.Mat))
	}
	return all.Bytes()
}

func TestSeedDiscipline(t *testing.T) {
	a, err := corpus(1)
	if err != nil {
		t.Fatal(err)
	}
	again, err := corpus(1)
	if err != nil {
		t.Fatal(err)
	}
	other, err := corpus(2)
	if err != nil {
		t.Fatal(err)
	}
	var differ int
	for i := range a {
		if !bytes.Equal(a[i].Body, again[i].Body) {
			t.Errorf("seed 1 built two different bodies for %s", a[i].Name)
		}
		if !bytes.Equal(a[i].Body, other[i].Body) {
			differ++
		}
	}
	if differ == 0 {
		t.Error("seeds 1 and 2 built identical corpora")
	}
	for _, wl := range workloads {
		same := sequenceBytes(wl.ops(1, a))
		if !bytes.Equal(same, sequenceBytes(wl.ops(1, again))) {
			t.Errorf("%s: seed 1 built two different request sequences", wl.name)
		}
		if bytes.Equal(same, sequenceBytes(wl.ops(2, other))) {
			t.Errorf("%s: seeds 1 and 2 built the same request sequence", wl.name)
		}
	}
}

func TestIngestMixShape(t *testing.T) {
	mats, err := corpus(3)
	if err != nil {
		t.Fatal(err)
	}
	ops := ingestOps(3, mats)
	uses := map[string]int{}      // fingerprint -> ops naming it
	perMatrix := map[string]int{} // path + matrix -> ops
	for _, o := range ops {
		uses[o.FP]++
		perMatrix[o.Path+mats[o.Mat].Name]++
	}
	// Every fresh body is uploaded, re-uploaded and executed inline once.
	if len(ops) != 3*4*ingestBlocks || len(uses) != 4*ingestBlocks {
		t.Fatalf("ingest-mix: %d ops over %d distinct bodies", len(ops), len(uses))
	}
	for fp, n := range uses {
		if n != 3 {
			t.Errorf("body %.12s is named by %d ops, want 3", fp, n)
		}
	}
	// Every matrix is uploaded and executed equally often.
	for _, c := range mats {
		if perMatrix["/matrix"+c.Name] != 2*perMatrix["/spmv"+c.Name] || perMatrix["/spmv"+c.Name] != 4*ingestBlocks/len(mats) {
			t.Errorf("%s: %d /matrix ops, %d /spmv ops", c.Name, perMatrix["/matrix"+c.Name], perMatrix["/spmv"+c.Name])
		}
	}
}

func TestCheckSpMV(t *testing.T) {
	mats, err := corpus(1)
	if err != nil {
		t.Fatal(err)
	}
	small := mats[0].M // 2^10 rows: y is echoed
	ref := referenceSpMV(small, 3)
	if err := checkSpMV(ref, ref.YNorm, ref.Y, true); err != nil {
		t.Errorf("reference rejected: %v", err)
	}
	wrong := append([]float64(nil), ref.Y...)
	wrong[7] *= 1.001
	if err := checkSpMV(ref, ref.YNorm, wrong, true); err == nil {
		t.Error("a wrong y entry passed")
	}
	if err := checkSpMV(ref, ref.YNorm*(1+1e-6), ref.Y, true); err == nil {
		t.Error("a wrong y_norm passed")
	}
	if err := checkSpMV(ref, ref.YNorm, ref.Y, false); err == nil {
		t.Error("an echoed y passed where none is expected")
	}
}

func TestEnvironment(t *testing.T) {
	env := environment()
	for _, k := range []string{"nproc", "gomaxprocs", "go", "cpu"} {
		if _, ok := env[k]; !ok {
			t.Errorf("env block lacks %q", k)
		}
	}
}

func TestCheckRejectsDegraded(t *testing.T) {
	mats, err := corpus(1)
	if err != nil {
		t.Fatal(err)
	}
	chk := newChecker(mats, nil)
	o := op{Path: "/predict", Mat: 0}
	good := fmt.Sprintf(`{"method":%q}`, mats[0].Method)
	if _, err := chk.check(o, []byte(good)); err != nil {
		t.Fatalf("the selected method was rejected: %v", err)
	}
	degraded := fmt.Sprintf(`{"method":%q,"degraded":true,"reason":"predictor-error"}`, mats[0].Method)
	if d, err := chk.check(o, []byte(degraded)); !d || err == nil {
		t.Errorf("a degraded answer passed: degraded=%v err=%v", d, err)
	}
}
