"""Command-line front end: precompute, train, bench, and replay.

Exit codes: 0 success, 2 validation error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from . import approx, bench
from .errors import LinkSdfError, NotConvergedError, ValidationError
from .grids import write_link_sdf
from .meshes import build_link_sdf
from .robot import RobotModel

log = logging.getLogger("linksdf")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


def _add_scenario_args(p: argparse.ArgumentParser, need_trajectory: bool = True):
    p.add_argument("--robot", required=True, type=Path, help="robot model JSON")
    p.add_argument("--grid-extent", required=True, type=float, help="environment half-extent [m]")
    p.add_argument("--grid-res", required=True, type=float, help="environment voxel size [m]")
    p.add_argument("--link-extent", required=True, type=float, help="link SDF half-extent [m]")
    p.add_argument("--link-res", required=True, type=float, help="link SDF cell size [m]")
    p.add_argument("--trajectory", required=need_trajectory, type=Path, help="waypoint CSV")
    p.add_argument("--clouds", type=Path, help="point-cloud sequence manifest")
    p.add_argument("--provider", choices=("exact", "neural"), default="exact")
    p.add_argument("--model", type=Path, help="trained transform model (.tmlp)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--d-prot", type=float, default=0.03, help="protective distance [m]")
    p.add_argument("--obstacle-speed", type=float, default=1.6, help="max obstacle speed [m/s]")
    p.add_argument(
        "--strict-extent",
        action="store_true",
        help="fail (instead of warn) when the link extent is too small",
    )


def _scenario_from_args(args, n_obstacles=None, reps=None) -> bench.ScenarioConfig:
    return bench.ScenarioConfig(
        robot_path=args.robot,
        grid_extent=args.grid_extent,
        grid_res=args.grid_res,
        link_extent=args.link_extent,
        link_res=args.link_res,
        trajectory_path=args.trajectory,
        clouds_path=args.clouds,
        d_prot=args.d_prot,
        obstacle_speed=args.obstacle_speed,
        provider=args.provider,
        model_path=args.model,
        seed=args.seed,
        n_obstacles=n_obstacles if n_obstacles is not None else 500,
        reps=reps if reps is not None else 20,
        strict_extent=args.strict_extent,
    )


def cmd_precompute(args) -> int:
    robot = RobotModel.from_json(args.robot)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    targets = [(i, robot.links[i]) for i in robot.geometry_links]
    if not targets:
        raise ValidationError(f"robot {robot.name} has no collision geometry")
    paths = [out_dir / f"link_{i:02d}_{link.name}.lsdf" for i, link in targets]
    existing = [p for p in paths if p.exists()]
    if existing and not args.force:
        raise ValidationError(
            f"{existing[0]} exists; pass --force to overwrite {len(existing)} file(s)"
        )
    for (i, link), path in zip(targets, paths):
        sdf = build_link_sdf(link.geometry, args.link_extent, args.link_res, link_id=i)
        write_link_sdf(path, sdf)
        print(f"wrote {path} ({'x'.join(map(str, sdf.dims))} cells)")
    return EXIT_OK


def cmd_train(args) -> int:
    if args.eval_samples < 1:
        raise ValidationError(f"--eval-samples must be >= 1, got {args.eval_samples}")
    points = approx.masked_window_points(args.window)
    config = approx.TrainingConfig(
        learning_rate=args.lr,
        steps=args.steps,
        batch_size=args.batch,
        seed=args.seed,
        hidden=args.hidden,
        target_max_error=args.target,
    )
    print(
        f"training transform model: window {args.window}, {len(points)} kept cells, "
        f"{3 * len(points)} outputs, hidden {args.hidden}"
    )
    try:
        model = approx.train_approximator(points, config)
    except NotConvergedError as err:
        print(f"did not converge: {err}", file=sys.stderr)
        if err.model is not None and args.out:
            err.model.save(args.out)
            print(f"wrote unconverged model to {args.out}", file=sys.stderr)
        return EXIT_RUNTIME
    model.save(args.out)
    steps_run = model.history[-1][0] if model.history else config.steps
    print(f"converged after {steps_run} steps; wrote {args.out}")

    rng = np.random.default_rng(args.seed + 1)
    report = approx.evaluate_approximator(model, points, args.eval_samples, rng)
    print(
        f"eval over {args.eval_samples} rotations: "
        f"max |err| = {report['max_abs_error']:.3e}, "
        f"mean |err| = {report['mean_abs_error']:.3e} "
        f"(target {args.target})"
    )
    return EXIT_OK if report["max_abs_error"] <= args.target else EXIT_RUNTIME


def cmd_bench(args) -> int:
    config = _scenario_from_args(args, n_obstacles=args.obstacles, reps=args.reps)
    csv_path = None
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / "bench.csv"
        if csv_path.exists() and not args.force:
            raise ValidationError(f"{csv_path} exists; pass --force to overwrite")
    scenario = bench.load_scenario(config)
    rng = np.random.default_rng(args.seed)
    report = bench.run_bench(scenario, rng)
    print(report.human())
    if csv_path is not None:
        report.to_csv(csv_path)
        print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_replay(args) -> int:
    config = _scenario_from_args(args)
    scenario = bench.load_scenario(config)
    out_path = Path(args.out)
    if out_path.exists() and not args.force:
        raise ValidationError(f"{out_path} exists; pass --force to overwrite")
    summary = bench.run_replay(scenario, out_path)
    print(
        f"replayed {summary['frames']:.0f} frame(s) over "
        f"{summary['waypoints']:.0f} waypoints; "
        f"{summary['points']:.0f} point(s), dropped "
        f"{summary['nonfinite_points']:.0f} non-finite and "
        f"{summary['out_of_grid_points']:.0f} out of grid; "
        f"min distance {summary['min_distance_m']:.4f} m; wrote {out_path}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linksdf",
        description="Batched robot-obstacle distance checking from link-local SDFs",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("precompute", help="bake per-link SDF cache files")
    p.add_argument("--robot", required=True, type=Path)
    p.add_argument("--link-extent", required=True, type=float)
    p.add_argument("--link-res", required=True, type=float)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--force", action="store_true", help="overwrite existing caches")
    p.set_defaults(fn=cmd_precompute)

    p = sub.add_parser("train", help="train the window-transform network")
    p.add_argument("--window", required=True, type=int, help="window width in cells")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--hidden", type=int, default=approx.DEFAULT_HIDDEN)
    p.add_argument("--steps", type=int, default=200_000)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--target", type=float, default=approx.DEFAULT_MAX_ERROR)
    p.add_argument("--eval-samples", type=int, default=100_000)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("bench", help="time preparation and queries for a scenario")
    _add_scenario_args(p)
    p.add_argument("--obstacles", type=int, default=500, help="random occupied voxels")
    p.add_argument("--reps", type=int, default=20, help="query timing repetitions")
    p.add_argument("--out", type=Path, help="directory for bench.csv")
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("replay", help="replay a cloud sequence, emit distance CSV")
    _add_scenario_args(p)
    p.add_argument("--out", required=True, type=Path, help="output distance CSV")
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_replay)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.fn(args)
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except (LinkSdfError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
