// Package core implements the paper's primary contribution: a Dynamic
// Periodicity Detector (DPD) based predictor for MPI message streams.
//
// The predictor consumes a stream of integer-valued observations — in the
// paper these are the rank of the sender of each message received by a
// process, or the size in bytes of each received message — and
//
//  1. detects whether the stream currently contains an iterative
//     (periodic) pattern,
//  2. reports the length of that pattern, and
//  3. predicts several future values of the stream (the paper evaluates
//     the next five, "+1 … +5").
//
// Detection uses the distance metric of equation (1) in the paper:
//
//	d(m) = Σ_{i} sign(|x[i] − x[i−m]|)
//
// computed over a sliding window of the most recent N samples for every
// candidate lag m in 1..M. d(m) counts the number of positions at which
// the window disagrees with itself shifted by m; d(m) == 0 means the
// window is exactly periodic with period m. The implementation keeps the
// per-lag mismatch counts incrementally (O(M) work per observation, no
// rescan of the window), mirroring the circular-list, low-overhead
// implementation the paper requires for runtime use. A locked
// StreamPredictor does not read the counts, so once a lock episode has
// lasted as many observations as one rebuild of the counts costs
// (K = (M·N − M(M+1)/2) / 2M, 207 at the default N = 512, M = 192), it
// stops maintaining them: each further observation is an O(1) window
// append, and the counts are rebuilt once from the window when the lock
// drops. Whenever the predictor is learning, the counts are exact.
//
// Two layers are provided:
//
//   - Detector is the bare DPD: observe samples, query d(m), the detected
//     period, and window-based predictions.
//   - StreamPredictor wraps a Detector with the policy needed for online
//     use: it abstains until a period has been confirmed, locks a
//     consensus snapshot of one full pattern, keeps predicting from the
//     locked pattern across isolated mismatches (the paper's predictor
//     "expects the pattern" and single random reorderings only cost the
//     affected predictions), and unlocks/relearns after a sustained miss
//     streak.
//
// Both layers are deliberately free of any MPI-specific notion; the
// predictor package composes them into sender/size message predictors.
package core
