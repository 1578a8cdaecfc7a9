"""Synthetic creator-earnings fixtures.

The real creator-month data this library is built around is proprietary, so
the repo ships a generator producing schema-compatible CSVs whose summary
statistics echo the published magnitudes: medians a few tens of USD/month,
heavy platform-specific tails, NSFW shares between roughly 0.1 and 0.6, and
earnings missing more often for larger earners.
"""

import csv
import math
from types import MappingProxyType

from .rng import make_rng

YEARS = (2018, 2021, 2024)
CATEGORIES = ("animation", "comics", "music", "podcasts", "writing")

# per-platform generator settings, read-only: draw weight, body median
# (USD/month), tail density exponent, and share of rows that grow a power-law tail
PLATFORM_PARAMS = MappingProxyType({p: MappingProxyType(cfg) for p, cfg in {
    "patreon":   dict(weight=0.30, median=57.0, alpha=2.24, tail_share=0.30),
    "twitter":   dict(weight=0.22, median=72.0, alpha=2.35, tail_share=0.20),
    "instagram": dict(weight=0.18, median=59.0, alpha=1.84, tail_share=0.40),
    "youtube":   dict(weight=0.14, median=47.0, alpha=1.80, tail_share=0.45),
    "facebook":  dict(weight=0.08, median=47.0, alpha=1.94, tail_share=0.40),
    "twitch":    dict(weight=0.04, median=46.0, alpha=1.93, tail_share=0.50),
}.items()})
_MULTI_WEIGHT = 0.04  # rows with two platforms, dropped at segmentation

_NSFW_BASE = {"patreon": 0.39, "twitter": 0.50, "instagram": 0.27,
              "youtube": 0.13, "facebook": 0.20, "twitch": 0.22}


def generate_rows(n_rows: int, seed: int):
    """Yield CSV rows (as dicts) for the documented schema."""
    rng = make_rng(seed)
    names = list(PLATFORM_PARAMS) + ["multi"]
    weights = [cfg["weight"] for cfg in PLATFORM_PARAMS.values()] + [_MULTI_WEIGHT]
    total = sum(weights)
    probs = [w / total for w in weights]
    for i in range(n_rows):
        pick = rng.choice(len(names), p=probs)
        name = names[pick]
        if name == "multi":
            # affiliation pairs come from the external platforms only
            keys = [p for p in PLATFORM_PARAMS if p != "patreon"]
            pair = rng.choice(len(keys), size=2, replace=False)
            platforms = ";".join(sorted(keys[int(j)] for j in pair))
            cfg = PLATFORM_PARAMS[keys[int(pair[0])]]
            nsfw_p = 0.3
        elif name == "patreon":
            platforms = ""
            cfg = PLATFORM_PARAMS[name]
            nsfw_p = _NSFW_BASE[name]
        else:
            platforms = name
            cfg = PLATFORM_PARAMS[name]
            nsfw_p = _NSFW_BASE[name]
        year = YEARS[int(rng.choice(3, p=[0.2, 0.35, 0.45]))]
        if name == "twitter" and year == 2024:
            nsfw_p = 0.58  # later years skew adult on this platform
        category = CATEGORIES[int(rng.choice(len(CATEGORIES)))]

        # earnings: lognormal body around the platform median, power-law tail
        if rng.random() < cfg["tail_share"]:
            ccdf_exp = cfg["alpha"] - 1.0
            earnings = cfg["median"] * (1.0 - rng.random()) ** (-1.0 / ccdf_exp)
        else:
            earnings = float(rng.lognormal(math.log(cfg["median"]), 0.8))
        earnings = round(max(earnings, 1.0), 2)

        # membership counts roughly linear in earnings (so the linear
        # imputation model has signal)
        rate = 4.0 + rng.random() * 3.0  # USD per paid member
        paid = max(int(earnings / rate), 0)
        members = paid + int(rng.lognormal(2.5, 0.9))

        # disclosure drops with size: bigger earners go missing more often
        p_missing = 0.06 + 0.30 * (paid / (paid + 200.0))
        missing = rng.random() < p_missing
        yield {
            "creator_id": f"c{i:06d}",
            "year": year,
            "platforms": platforms,
            "category": category,
            "nsfw": "true" if rng.random() < nsfw_p else "false",
            "members": members,
            "paid_members": paid,
            "earnings": "" if missing else f"{earnings:.2f}",
        }


def write_fixture(path, n_rows: int = 6000, seed: int = 20240301) -> int:
    """Write a fixture CSV; returns the number of rows written."""
    from .pipeline import CSV_COLUMNS

    n = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(CSV_COLUMNS))
        writer.writeheader()
        for row in generate_rows(n_rows, seed):
            writer.writerow(row)
            n += 1
    return n
