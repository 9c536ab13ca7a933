"""Figure-data export: turn bench series into plot-ready CSV files.

The benches print fixed-width tables; users who want to re-draw the
paper's figures need machine-readable series.  :class:`FigureData`
collects named series with a shared x-axis and writes CSV (no plotting
dependency is installed in this environment, so rendering is left to the
consumer — any spreadsheet or matplotlib one-liner).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence


@dataclass
class FigureData:
    """One figure's worth of series sharing an x-axis.

    >>> fig = FigureData("fig08", "input batches", "modeled throughput")
    >>> fig.set_x([0, 1, 2])
    >>> fig.add_series("GraphTinker", [3.0, 2.9, 2.8])
    >>> text = fig.to_csv_text()
    """

    name: str
    x_label: str
    y_label: str
    x: list[object] = field(default_factory=list)
    series: dict[str, list[float]] = field(default_factory=dict)

    def set_x(self, values: Sequence[object]) -> None:
        self.x = list(values)

    def add_series(self, label: str, values: Sequence[float]) -> None:
        values = list(values)
        if self.x and len(values) != len(self.x):
            raise ValueError(
                f"series {label!r} has {len(values)} points but the x-axis "
                f"has {len(self.x)}"
            )
        if label in self.series:
            raise ValueError(f"duplicate series label {label!r}")
        self.series[label] = values

    def to_csv_text(self) -> str:
        import io

        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow([self.x_label] + list(self.series))
        for i, x in enumerate(self.x):
            writer.writerow([x] + [self.series[s][i] for s in self.series])
        return buf.getvalue()

    def write(self, directory: str | Path) -> Path:
        """Write ``<directory>/<name>.csv``; returns the path."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.name}.csv"
        path.write_text(self.to_csv_text())
        return path


def export_insertion_figure(
    directory: str | Path,
    dataset: str = "hollywood_like",
    n_batches: int = 8,
) -> Path:
    """Regenerate Fig. 8's series and write them as CSV.

    Convenience wrapper so ``python -c`` one-liners (or the docs) can
    produce plot data without going through pytest.
    """
    from repro.bench.costmodel import DEFAULT_COST_MODEL as MODEL
    from repro.bench.harness import insertion_run
    from repro.core.store import create_store
    from repro.workloads import load_dataset
    from repro.workloads.streams import EdgeStream

    _, edges = load_dataset(dataset)
    edges = edges[: min(edges.shape[0], 48_000)]
    fig = FigureData("fig08_insertion", "batch", "modeled throughput")
    fig.set_x(list(range(n_batches)))
    for label, kind in (("GT+CAL", "graphtinker"), ("GT-noCAL", "gt_nocal"),
                        ("STINGER", "stinger")):
        stream = EdgeStream(edges, max(1, edges.shape[0] // n_batches))
        store = create_store(kind)
        ms = insertion_run(store, stream)
        fig.add_series(label, [m.modeled_throughput(MODEL) for m in ms[:n_batches]])
    return fig.write(directory)
