"""Six-parameter external solver for the benchmark, file-exchange protocol.

Run as ``python3 solver6.py <params.csv> <qoi.csv>``: it reads one request
row per sample under a header of input names and writes one response row per
sample under a header of output names, the protocol of
``sguq.models.ExternalModel``.  Imported, ``evaluate`` gives the same values
in-process, so the benchmark's checks can use it as the reference model.

The model is a smooth stand-in for a part-scale solver.  Four parameters act
on the outputs; ``p3`` and ``p6`` are read but have no effect, so screening
must drop them and their total Sobol indices are exactly zero.  The eight
displacement-like outputs ``m_1..m_8`` are the measurements: their
sensitivities to the four active parameters have different profiles along
the stations, so J^T J has full rank on the kept dimensions everywhere in the
box.  ``q_1..q_4`` are the quantities of interest of the forward stage.
"""

import csv
import math
import sys

INPUT_NAMES = ("p1", "p2", "p3", "p4", "p5", "p6")
RANGES = ((1.0, 3.0), (-1.0, 1.0), (0.0, 1.0), (10.0, 20.0), (0.0, 0.5), (0.0, 1.0))
MEASUREMENT_NAMES = tuple(f"m_{j}" for j in range(1, 9))
QOI_NAMES = tuple(f"q_{j}" for j in range(1, 5))
OUTPUT_NAMES = MEASUREMENT_NAMES + QOI_NAMES


def _unit(row):
    # active parameters mapped to [0, 1]; p3 and p6 are never read
    return [(row[i] - RANGES[i][0]) / (RANGES[i][1] - RANGES[i][0]) for i in (0, 1, 3, 4)]


def evaluate_row(row):
    """All twelve outputs for one parameter vector of length six."""
    x1, x2, x4, x5 = _unit(row)
    f1 = math.exp(0.8 * x1)
    f2 = x2 + 0.4 * x2 * x2
    f4 = math.log1p(1.5 * x4)
    f5 = math.sin(1.2 * x5)
    out = []
    for j in range(1, 9):
        t = j / 8.0
        out.append(1.0 + 0.6 * (1.0 - t) * f1 + 0.8 * t * f2
                   + 0.5 * math.sin(2.0 * math.pi * t) * f4
                   + 0.5 * math.cos(2.0 * math.pi * t) * f5 + 0.2 * t * x1 * x2)
    out.append(f1 * (1.0 + f4))
    out.append(x2 + x5 * x5 + 0.5 * x2 * x5)
    out.append(math.sin(0.7 * (x1 + x2 + x4 + x5)))
    out.append(math.exp(0.3 * (x1 - x5)) + 0.2 * f2 * f4)
    return out


def evaluate(rows):
    """Outputs for a sequence of parameter vectors, one list per row."""
    return [evaluate_row([float(x) for x in row]) for row in rows]


def main(argv):
    if len(argv) != 3:
        print("usage: solver6.py <params.csv> <qoi.csv>", file=sys.stderr)
        return 2
    with open(argv[1], newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(h.strip() for h in next(reader))
        if header != INPUT_NAMES:
            print(f"unexpected input header {header}", file=sys.stderr)
            return 2
        rows = [[float(x) for x in row] for row in reader if row]
    with open(argv[2], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(OUTPUT_NAMES)
        for values in evaluate(rows):
            writer.writerow([f"{v:.17g}" for v in values])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
