#!/usr/bin/env python3
"""Compare batch fitting against the online mode: learn the model on one
slice of a synthetic dataset, freeze it, and stream the remaining items
through single E-steps.

Example:
    python scripts/run_online_experiment.py --n-items 5000 --learn-fraction 0.2
"""

import argparse
import sys
import time

import numpy as np

import softds as s
from softds.cli import _resolve_threads


def parse_args():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--n-items", type=int, default=5000)
    p.add_argument("--n-members", type=int, default=3)
    p.add_argument("--n-classes", type=int, default=5)
    p.add_argument("--diag", type=float, default=1.2)
    p.add_argument("--off", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=17)
    p.add_argument("--learn-fraction", type=float, default=0.2,
                   help="share of items used to fit the frozen model")
    p.add_argument("--em-iterations", type=int, default=100)
    return p.parse_args()


def report_line(name, post, truth, seconds):
    rep = s.evaluate_posterior(post, truth)
    print(f"{name:14s} acc={rep.accuracy:.4f} ece={rep.ece:.4f} "
          f"brier={rep.brier:.4f} nll={rep.nll:.4f}  ({seconds:.2f}s)")


def main():
    args = parse_args()
    eye = np.eye(args.n_classes, dtype=bool)
    pi = np.where(eye, args.diag, args.off)[None].repeat(args.n_members, axis=0)
    spec = s.GenerativeSpec(
        args.n_items, args.n_members, args.n_classes,
        s.ClassPrior(np.full(args.n_classes, 1.0 / args.n_classes)),
        s.ConfusionTensor(pi), args.seed)
    # SOFTDS_THREADS, else every core, as the command line resolves it
    workers = _resolve_threads(None)
    preds, truth = s.sample(spec, workers)
    n_learn = max(1, int(args.n_items * args.learn_fraction))
    learn = s.PredictionSet(preds.probs[:n_learn], preds.item_ids[:n_learn])
    rest = s.PredictionSet(preds.probs[n_learn:], preds.item_ids[n_learn:])
    rest_truth = s.GroundTruth(truth.labels[n_learn:], list(rest.item_ids))
    print(f"learning on {n_learn} items, streaming {rest.n_items}",
          file=sys.stderr)

    config = s.SdsConfig(em_iterations=args.em_iterations)

    t0 = time.perf_counter()
    model, _, _ = s.fit(learn, config)
    t_learn = time.perf_counter() - t0

    t0 = time.perf_counter()
    online_rows = np.stack([s.online_infer(rest.probs[i], model)
                            for i in range(rest.n_items)])
    t_online = time.perf_counter() - t0
    online_post = s.PosteriorMatrix(online_rows, list(rest.item_ids))

    t0 = time.perf_counter()
    _, offline_post, _ = s.fit(rest, config)
    t_offline = time.perf_counter() - t0

    t0 = time.perf_counter()
    ea_post = s.ensemble_average(rest)
    t_ea = time.perf_counter() - t0

    print(f"model learned in {t_learn:.2f}s on {n_learn} items\n")
    report_line("ea", ea_post, rest_truth, t_ea)
    report_line("online", online_post, rest_truth, t_online)
    report_line("offline refit", offline_post, rest_truth, t_offline)


if __name__ == "__main__":
    main()
