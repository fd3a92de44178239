"""Ground-state phase diagrams in the chemical-potential plane.

Renders small ASCII phase maps for the weak and strong closed-form limits
and for the finite-coupling classifier, then prints the balanced-pair
staircase along the zero-field axis.
"""

import numpy as np

from bfmix.phases import FieldPoint, phase_scan, weak_coupling_phase

GLYPH = {"B": ".", "BF1": "1", "BF2": "2", "BF1F2": "m", "S": "S",
         "F1": "^", "F2": "v", "F": "f"}


def ascii_map(regime, ratios, hs, **kwargs):
    scan = phase_scan(regime, ratios, hs, **kwargs)
    rows = {}
    for row in scan.rows:
        rows.setdefault(row.h, {})[row.ratio] = GLYPH[row.label]
    print(f"  {regime} regime (rows: field h top-down, columns: ratio left-right)")
    for h in sorted(rows, reverse=True):
        line = "".join(rows[h][r] for r in sorted(rows[h]))
        print(f"    h={h:+5.2f}  {line}")
    legend = sorted({row.label for row in scan.rows})
    print("    legend: " + "  ".join(f"{GLYPH[k]}={k}" for k in legend))


def main() -> None:
    n, L = 42, 42.0
    ratios = [float(r) for r in np.linspace(0.0, 3.0, 44)]
    hs = [float(h) for h in np.linspace(-3.0, 3.0, 13)]

    print("Phase maps over (mu_f / mu_b, h)")
    print("=" * 60)
    ascii_map("weak", ratios, hs, n=n, L=L)
    print()
    ascii_map("strong", ratios, hs, n=n, L=L)
    print()
    print("  finite coupling (c = 1): building the sector energy table ...")
    ascii_map("general", ratios, hs, c=1.0, n=n, L=L)

    print()
    print("Balanced-pair staircase along h = 0 (weak limit):")
    prev = None
    for r in np.linspace(0.0, 8.0, 1601):
        point = weak_coupling_phase(FieldPoint.from_ratio(float(r), 0.0), n, L)
        pairs = min(point.populations[1], point.populations[2])
        if pairs != prev:
            print(f"  ratio >= {r:6.4f}: {pairs:2d} pairs  "
                  f"(N_B, N_up, N_down) = {point.populations}")
            prev = pairs


if __name__ == "__main__":
    main()
