#!/usr/bin/env python3
"""Generate a synthetic ensemble, aggregate it with every method, and
print a metric comparison plus a confusion-recovery summary.

Example:
    python scripts/run_synthetic_experiment.py --n-items 2000 --diag 0.8 \
        --off 0.25 --seed 23
"""

import argparse
import os
import sys

import numpy as np

import softds as s
from softds.cli import _resolve_threads


def parse_args():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--n-items", type=int, default=2000)
    p.add_argument("--n-members", type=int, default=3)
    p.add_argument("--n-classes", type=int, default=5)
    p.add_argument("--diag", type=float, default=0.8,
                   help="diagonal Dirichlet parameter of every true "
                        "confusion row")
    p.add_argument("--off", type=float, default=0.25,
                   help="off-diagonal Dirichlet parameter")
    p.add_argument("--seed", type=int, default=23)
    p.add_argument("--em-iterations", type=int, default=100)
    p.add_argument("--ece-bins", type=int, default=s.metrics.ECE_BINS)
    p.add_argument("--out-dir", default=None,
                   help="also dump dataset, posteriors, model, and trace")
    return p.parse_args()


def build_spec(args):
    eye = np.eye(args.n_classes, dtype=bool)
    pi = np.where(eye, args.diag, args.off)[None].repeat(args.n_members, axis=0)
    return s.GenerativeSpec(
        n_items=args.n_items,
        n_members=args.n_members,
        n_classes=args.n_classes,
        nu_true=s.ClassPrior(np.full(args.n_classes, 1.0 / args.n_classes)),
        pi_true=s.ConfusionTensor(pi),
        seed=args.seed,
    )


def tv_per_row(fitted, true):
    a = fitted / fitted.sum(axis=-1, keepdims=True)
    b = true / true.sum(axis=-1, keepdims=True)
    return 0.5 * np.abs(a - b).sum(axis=-1)


def main():
    args = parse_args()
    spec = build_spec(args)
    # SOFTDS_THREADS, else every core, as the command line resolves it
    workers = _resolve_threads(None)
    preds, truth = s.sample(spec, workers)
    print(f"sampled N={preds.n_items} K={preds.n_members} J={preds.n_classes} "
          f"(seed {spec.seed})", file=sys.stderr)

    config = s.SdsConfig(em_iterations=args.em_iterations)
    model, sds_post, trace = s.fit(preds, config)

    posteriors = {
        "mv": s.majority_vote(preds),
        "ea": s.ensemble_average(preds),
        "ds": s.ds_em(preds, args.em_iterations, config.ds_init_smoothing)[2],
        "sds": sds_post,
        "bayes*": s.bayes_posterior(spec, preds),
    }

    print(f"{'method':8s} {'accuracy':>9s} {'ece':>9s} {'brier':>9s} {'nll':>9s}")
    for name, post in posteriors.items():
        report = s.evaluate_posterior(post, truth, n_bins=args.ece_bins)
        print(f"{name:8s} {report.accuracy:9.4f} {report.ece:9.4f} "
              f"{report.brier:9.4f} {report.nll:9.4f}")
    print("(* exact posterior under the true parameters: an upper bound)")

    tv = tv_per_row(model.pi.pi, spec.pi_true.pi)
    print(f"\nconfusion recovery, total variation of row-normalized tensors: "
          f"mean={tv.mean():.4f} max={tv.max():.4f}")
    print(f"fit trace: {len(trace)} iterations, "
          f"q {trace.q[0]:.4g} -> {trace.q[-1]:.4g}, "
          f"{trace.millis.sum() / 1e3:.2f}s total")

    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        s.save_ground_truth(truth, os.path.join(args.out_dir, "truth.csv"))
        s.save_predictions(preds, args.out_dir, labels_filename="truth.csv")
        for name, post in posteriors.items():
            safe = name.rstrip("*")
            s.save_posterior(post, os.path.join(args.out_dir,
                                                f"posterior_{safe}.csv"))
        s.save_model(model, os.path.join(args.out_dir, "model.json"))
        trace.save_csv(os.path.join(args.out_dir, "trace.csv"))
        print(f"artifacts -> {args.out_dir}", file=sys.stderr)


if __name__ == "__main__":
    main()
