// Fraud: explain which transaction attributes make flagged transactions
// suspicious, comparing detectors the way the paper does.
//
// A payments dataset has 10 numeric attributes (amount, velocity, hour,
// merchant-risk, …) whose normal behaviour forms a few correlated customer
// profiles. Fraudulent transactions deviate across the whole attribute
// space — the classic full-space outlier of the paper's real datasets. An
// analyst wants, per flagged transaction, the 2–3 attributes to look at
// first.
//
// The example derives a detector-based ground truth exactly like the paper
// (exhaustive LOF search per dimensionality) and then shows the paper's
// headline result on full-space outliers: the stage-wise search (Beam)
// paired with the right detector dominates the random-projection search
// (RefOut).
//
// Run with: go run ./examples/fraud
package main

import (
	"context"
	"fmt"
	"log"

	"anex"
)

func main() {
	ctx := context.Background()
	ds, flagged, err := anex.GenerateFullSpaceOutliers(anex.FullSpaceOutlierConfig{
		Name:        "transactions",
		N:           400,
		D:           10,
		NumOutliers: 24,
		Seed:        99,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transactions: %d × %d attributes, %d flagged as fraud\n", ds.N(), ds.D(), len(flagged))

	// Ground truth: for each flagged transaction, the attribute pair and
	// triple where it deviates most (exhaustive LOF search, Section 3.2).
	lof := anex.NewLOF(15)
	gt, err := anex.DeriveGroundTruth(ctx, ds, flagged, []int{2, 3}, lof)
	if err != nil {
		log.Fatal(err)
	}

	// Show one concrete explanation.
	p := flagged[0]
	beam := anex.NewBeamFX(anex.CachedDetector(lof))
	list, err := beam.ExplainPoint(ctx, ds, p, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntransaction %d — attributes to investigate first (Beam + LOF):\n", p)
	for i, e := range list[:3] {
		fmt.Printf("  %d. %v  standardised outlyingness %.2f\n", i+1, e.Subspace, e.Score)
	}

	// Reproduce the paper's comparison in miniature: MAP of each
	// detector × point-explainer pipeline at 2d. LOF and FastABOD share one
	// neighbourhood plane, so each subspace's kNN is computed once for
	// both of them.
	fmt.Println("\nMAP at 2d per pipeline (cf. the paper's Figure 9 f–h):")
	plane := anex.NewNeighborhoodPlane(0)
	knnLOF, knnABOD := anex.NewLOF(15), anex.NewFastABOD(10)
	knnLOF.SetNeighbors(plane)
	knnABOD.SetNeighbors(plane)
	detectors := []struct {
		name string
		det  anex.Detector
	}{
		{"LOF", knnLOF},
		{"FastABOD", knnABOD},
		{"iForest", anex.NewIsolationForest(5)},
	}
	for _, d := range detectors {
		cached := anex.CachedDetector(d.det)
		beamRes := anex.ExplainOutliers(ctx, ds, gt, d.name, anex.NewBeamFX(cached), 2)
		refoutRes := anex.ExplainOutliers(ctx, ds, gt, d.name, anex.NewRefOut(cached, 1), 2)
		if beamRes.Err != nil || refoutRes.Err != nil {
			log.Fatal(beamRes.Err, refoutRes.Err)
		}
		fmt.Printf("  %-9s Beam %.2f   RefOut %.2f\n", d.name, beamRes.MAP, refoutRes.MAP)
	}
	fmt.Println("\nexpected shape (paper, full-space outliers): Beam+LOF ≈ 1, Beam with")
	fmt.Println("other detectors lower, RefOut behind Beam regardless of detector.")
}
