"""Table 5: line coverage of CoverMe versus Rand and AFL."""

from __future__ import annotations

from repro.experiments.pipeline import ExperimentSpec, register_spec
from repro.experiments.runner import ComparisonRow, Profile, mean
from repro.experiments.table2 import run as run_table2

TOOLS = ("Rand", "AFL", "CoverMe")


def run(profile: Profile, cases=None, store=None, resume: bool = True) -> list[ComparisonRow]:
    """Same tool runs as Table 2 but with line-coverage measurement enabled."""
    return run_table2(profile, cases=cases, measure_lines=True, store=store, resume=resume)


def line_percent(row: ComparisonRow, tool: str) -> float:
    summary = row.results.get(tool)
    if summary is None or summary.n_lines == 0:
        return float("nan")
    return summary.line_coverage_percent


def summarize(rows: list[ComparisonRow]) -> dict[str, float]:
    return {tool: mean([line_percent(row, tool) for row in rows]) for tool in TOOLS}


def render(rows: list[ComparisonRow], profile: Profile) -> str:
    lines = [f"Table 5 reproduction (profile={profile.name}): line coverage (%)"]
    header = (
        f"{'File':<16s}{'Function':<34s}"
        + "".join(f"{t:>10s}" for t in TOOLS)
        + f"{'Paper':>10s}"
    )
    lines.append(header)
    for row in rows:
        line = f"{row.case.file:<16s}{row.case.function:<34s}"
        for tool in TOOLS:
            line += f"{line_percent(row, tool):>10.1f}"
        paper = row.case.paper.coverme_line
        line += f"{paper if paper is not None else float('nan'):>10.1f}"
        lines.append(line)
    summary = summarize(rows)
    lines.append(
        f"\nMeans: Rand {summary['Rand']:.1f}%  AFL {summary['AFL']:.1f}%  "
        f"CoverMe {summary['CoverMe']:.1f}% (paper: 54.2 / 87.0 / 97.0)"
    )
    return "\n".join(lines)


SPEC = register_spec(
    ExperimentSpec(
        name="table5",
        title="Table 5: line coverage, CoverMe vs Rand vs AFL",
        tools=TOOLS,
        measure_lines=True,
        render=render,
    )
)
