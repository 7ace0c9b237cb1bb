package main

import (
	"crypto/sha256"
	"encoding/hex"

	"repro/internal/cq"
	"repro/internal/exec"
	"repro/internal/fleet"
	"repro/internal/operator"
	"repro/internal/service"
)

// answerDigest hashes a search's ranked answers (rank, score, candidate
// network, base tuples) with the query-id prefix stripped, so the same
// logical search compares equal across engines that numbered their queries
// differently.
func answerDigest(v *fleet.ResultView) string {
	h := sha256.New()
	fleet.DigestAnswers(h, v)
	return hex.EncodeToString(h.Sum(nil))
}

// viewOf builds the wire view of a finished search from engine results, the
// way a shard answers one.
func viewOf(uq *cq.UQ, results []operator.Result) *fleet.ResultView {
	res := &service.Result{ID: uq.ID, Keywords: uq.Keywords, CandidateNetworks: len(uq.CQs)}
	for i, rr := range results {
		res.Answers = append(res.Answers, service.Answer{
			Rank:   i + 1,
			Score:  rr.Score,
			Query:  rr.CQID,
			Tuples: rr.Row.Parts(),
		})
	}
	return fleet.ViewOf(res)
}

// reportDigests returns the answer digest of each query of an exec run, in
// the order of ids.
func reportDigests(rep *exec.Report, ids []string) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		if u := rep.ByUQ(id); u != nil {
			out[i] = answerDigest(viewOf(u.UQ, u.Results))
		}
	}
	return out
}
