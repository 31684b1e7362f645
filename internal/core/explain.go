package core

import (
	"context"
	"strconv"

	"tatooine/internal/source"
)

// AtomExplain reports, for one planned atom, how the executor would
// probe its source — in particular whether bind-join probes would ship
// batched (source.BatchProber) or per tuple.
type AtomExplain struct {
	Atom       int    `json:"atom"`           // index in the CMQ body
	Designator string `json:"designator"`     // source URI, ?var, or GRAPH
	Wave       int    `json:"wave"`           // dependency depth in the operator DAG
	Deps       []int  `json:"deps,omitempty"` // plan-step positions feeding this node
	Mode       string `json:"mode"`           // "scan" or "bind-join(vars)" [+ " dynamic"]
	EstRows    int    `json:"estRows"`        // planner cardinality estimate (-1 unknown)
	EstCost    int    `json:"estCost"`        // planner effort estimate (-1 unknown)
	Batched    bool   `json:"batched"`        // probes would ship as batches
	BatchSize  int    `json:"batchSize,omitempty"`
	Reason     string `json:"reason"` // why (not) batched
	// Pruning reports, for bind joins, whether digest semi-join pruning
	// would apply (and why not when it wouldn't).
	Pruning string `json:"pruning,omitempty"`
	// Spill reports, when a join memory budget is set, whether this
	// node's estimated output would exceed the budget as a residual
	// join's build side and run as a partitioned on-disk join. A node no
	// join builds from never spills.
	Spill string `json:"spill,omitempty"`
}

// ExplainInfo is the plan-only answer to an explain request: the
// rendered plan plus the per-atom probe decisions, computed without
// executing anything.
type ExplainInfo struct {
	Plan  string        `json:"plan"`
	Atoms []AtomExplain `json:"atoms"`
}

// ExplainQuery is ExplainQueryContext without a caller context.
func (in *Instance) ExplainQuery(q *CMQ, opts ExecOptions) (*ExplainInfo, error) {
	return in.ExplainQueryContext(context.Background(), q, opts)
}

// ExplainQueryContext plans q under opts and reports, per atom, whether
// its bind-join probes would be batched and pruned, without executing
// the query. ctx bounds planning as it does for an execution: a dead
// request stops consulting sources (digest fetches, remote estimates).
// Dynamic atoms resolve their sources only at run time, so their
// decision is reported as undetermined.
func (in *Instance) ExplainQueryContext(ctx context.Context, q *CMQ, opts ExecOptions) (*ExplainInfo, error) {
	plan, err := in.planQuery(ctx, q)
	if err != nil {
		return nil, err
	}
	// build marks the steps some join hashes as its build side: only
	// those can spill.
	build := make([]bool, len(plan.Steps))
	chains := []chain{plan.root}
	for _, s := range plan.Steps {
		chains = append(chains, s.outer)
	}
	for _, c := range chains {
		for _, j := range c.joins {
			build[j.build] = true
		}
	}
	info := &ExplainInfo{Plan: plan.Explain(q)}
	for i, s := range plan.Steps {
		a := q.Atoms[s.AtomIndex]
		ae := AtomExplain{
			Atom:       s.AtomIndex,
			Designator: a.Designator(),
			Wave:       s.Wave,
			Deps:       s.Deps,
			EstRows:    s.EstRows,
			EstCost:    s.EstCost,
			Mode:       s.mode(a),
		}
		var src source.DataSource
		var srcErr error
		if s.BindJoin && !s.Dynamic {
			src, srcErr = in.atomSource(a, q.Prefixes)
		}
		switch {
		case !s.BindJoin:
			ae.Reason = "not a bind join: single sub-query, nothing to batch"
		case s.Dynamic:
			ae.Reason = "dynamic source: capability known only after the designator binds at run time"
		case srcErr != nil:
			ae.Reason = "source unresolvable at plan time: " + srcErr.Error()
		case source.CanBatch(src):
			ae.Batched = true
			ae.BatchSize = DefaultProbeBatch
			ae.Reason = "source supports batched probes; tuples ship in batches of " + strconv.Itoa(DefaultProbeBatch)
		default:
			ae.Reason = "source lacks the BatchProber capability; probes ship per tuple"
		}
		switch {
		case !s.BindJoin:
		case s.Dynamic:
			ae.Pruning = "dynamic source: pruning decided per discovered source at run time"
		case s.pruner != nil:
			ae.Pruning = "digest covers the parameter positions; bindings the digest excludes are skipped before probing"
		case srcErr == nil:
			ae.Pruning = "no prunable digest statistics for this sub-query shape; every distinct binding probes"
		}
		if opts.JoinMemBudget > 0 {
			// The executor also counts string payloads, measured at run
			// time; explain has only cardinalities and the layout width.
			est := int64(s.EstRows) * rowBytes(len(s.layout.cols), 0)
			switch {
			case !build[i]:
				ae.Spill = "never a join build side; nothing to spill"
			case s.EstRows < 0:
				ae.Spill = "unknown cardinality; spill decided against the budget at run time"
			case est > opts.JoinMemBudget:
				ae.Spill = "estimated ~" + strconv.FormatInt(est, 10) +
					" bytes as a join build side exceeds the " +
					strconv.FormatInt(opts.JoinMemBudget, 10) + "-byte budget; would spill to disk"
			default:
				ae.Spill = "estimated build side fits the join memory budget"
			}
		}
		info.Atoms = append(info.Atoms, ae)
	}
	return info, nil
}
