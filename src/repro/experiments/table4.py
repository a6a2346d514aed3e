"""Table 4: the Fdlibm functions excluded from the evaluation, with reasons."""

from __future__ import annotations

from repro.experiments.pipeline import ExperimentSpec, register_spec
from repro.fdlibm.excluded import EXCLUDED, excluded_by_reason


def run():
    """Return the exclusion registry grouped by reason."""
    return excluded_by_reason()


def render_text(profile=None) -> str:
    """Render the Table 4 artifact (exclusion registry; profile-independent)."""
    lines = [
        "Table 4 reproduction: untested Fdlibm programs",
        f"{'File':<18s}{'Function':<56s}{'Reason'}",
    ]
    for item in EXCLUDED:
        lines.append(f"{item.file:<18s}{item.function:<56s}{item.reason}")
    groups = excluded_by_reason()
    lines.append("\nSummary:")
    for reason, items in sorted(groups.items()):
        lines.append(f"  {reason}: {len(items)} functions")
    return "\n".join(lines)


SPEC = register_spec(
    ExperimentSpec(
        name="table4",
        title="Table 4: excluded Fdlibm functions",
        script=render_text,
    )
)
