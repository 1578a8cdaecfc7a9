import csv
import io
import json
import statistics
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from tailkit import pipeline
from tailkit.errors import SampleTooSmall, SchemaError, SingularDesign
from tailkit.fixtures import PLATFORM_PARAMS, write_fixture
from tailkit.pipeline import (
    CATEGORY,
    PLATFORM,
    PLATFORM_YEAR,
    EarningsRecord,
    PlatformStats,
    fit_imputation,
    filter_floor,
    group_samples,
    impute_earnings,
    nsfw_breakdown,
    nsfw_table_csv,
    parse_csv,
    run_pipeline,
    segment_single_platform,
    stats_table_csv,
    summary_stats,
)
from tailkit.rng import make_rng
from tailkit.sample import make_sample

import oracles
from oracles import summary_naive


def rec(creator_id="c1", year=2021, platforms=(), category="music", nsfw=False,
        members=100, paid_members=10, earnings=100.0, imputed=False):
    return EarningsRecord(creator_id=creator_id, year=year,
                          platforms=frozenset(platforms), category=category,
                          nsfw=nsfw, members=members, paid_members=paid_members,
                          earnings=earnings, imputed=imputed)


def table(*records):
    return oracles.table_from_records(records)


# -- parsing -----------------------------------------------------------------

def write_csv(path, rows, header="creator_id,year,platforms,category,nsfw,members,paid_members,earnings"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


def test_parse_basic_row(tmp_path):
    p = tmp_path / "a.csv"
    write_csv(p, ["c1,2021,instagram,music,false,120,30,250.0"])
    res = parse_csv(p)
    assert len(res.records) == 1 and not res.diagnostics
    [r] = res.records
    assert r.platforms == frozenset({"instagram"})
    assert r.earnings == 250.0 and r.imputed is False


def test_parse_empty_earnings_is_missing(tmp_path):
    p = tmp_path / "a.csv"
    write_csv(p, ["c1,2021,,music,false,120,30,"])
    [r] = parse_csv(p).records
    assert r.earnings is None and r.imputed is False
    assert r.platforms == frozenset()


def test_parse_rejects_paid_over_members(tmp_path):
    p = tmp_path / "a.csv"
    write_csv(p, ["c1,2021,twitch,music,false,10,30,5.0",
                  "c2,2021,twitch,music,false,30,10,5.0"])
    res = parse_csv(p)
    assert len(res.records) == 1
    assert len(res.diagnostics) == 1 and res.diagnostics[0].startswith("line 2:")


def test_parse_rejects_malformed_numbers_with_line_numbers(tmp_path):
    p = tmp_path / "a.csv"
    write_csv(p, ["c1,2021,twitch,music,false,10,3,abc",
                  "c2,20x1,twitch,music,false,10,3,5",
                  "c3,2021,twitch,music,false,10,3,5"])
    res = parse_csv(p)
    assert len(res.records) == 1
    assert [d.split(":")[0] for d in res.diagnostics] == ["line 2", "line 3"]
    assert res.n_rejected == 2


def test_parse_multiplatform_field(tmp_path):
    p = tmp_path / "a.csv"
    write_csv(p, ["c1,2021,twitter;youtube,music,true,10,3,5"])
    [r] = parse_csv(p).records
    assert r.platforms == frozenset({"twitter", "youtube"})


def test_parse_keeps_categories_that_differ_by_a_trailing_nul(tmp_path):
    p = tmp_path / "a.csv"
    write_csv(p, ["c1,2021,,cat,false,10,3,5", "c2,2021,,cat\x00,false,10,3,5",
                  "c3,2021,,Cat,false,10,3,5"])
    t = parse_csv(p).records
    assert t.categories == ("cat", "cat\x00")
    assert [r.category for r in t] == ["cat", "cat\x00", "cat"]


def test_parse_header_only_gives_an_empty_table(tmp_path):
    p = tmp_path / "a.csv"
    write_csv(p, [])
    res = parse_csv(p)
    assert len(res.records) == 0 and not res.diagnostics
    assert list(res.records) == [] and res.records.categories == ()


def test_parse_skips_a_leading_bom(tmp_path):
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    write_fixture(plain, 300, seed=5)
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    got = parse_csv(bom)
    want = parse_csv(plain)
    assert len(got.records) == 300 and list(got.records) == list(want.records)
    assert got.diagnostics == want.diagnostics


def test_parse_missing_column_schema_error(tmp_path):
    p = tmp_path / "a.csv"
    write_csv(p, ["c1,2021,x,false,10,3,5"],
              header="creator_id,year,platforms,nsfw,members,paid_members,earnings")
    with pytest.raises(SchemaError):
        parse_csv(p)


# -- imputation ---------------------------------------------------------------

def synthetic_training(n=400, slope=5.0, seed=2):
    """A table of n rows whose earnings are slope * paid_members + noise."""
    rng = make_rng(seed)
    out = []
    for i in range(n):
        paid = int(rng.integers(1, 300))
        noise = float(rng.normal(0, 1))
        out.append(rec(creator_id=f"t{i}", paid_members=paid, members=paid + 50,
                       category=("music", "comics")[i % 2],
                       year=(2018, 2024)[i % 2],
                       earnings=slope * paid + noise))
    return table(*out)


def test_imputation_recovers_planted_slope():
    model = fit_imputation(synthetic_training())
    idx = 1  # paid_members column
    assert model.coef[idx] == pytest.approx(5.0, abs=0.1)
    assert model.r_squared > 0.99


def test_imputation_predicts_missing():
    model = fit_imputation(synthetic_training())
    missing = rec(year=2018, paid_members=100, members=150, earnings=None)
    out, n_unseen = impute_earnings(table(missing), model)
    [r] = out
    assert r.imputed and n_unseen == 0
    assert r.earnings == pytest.approx(500.0, abs=10.0)


def test_imputation_leaves_observed_untouched():
    model = fit_imputation(synthetic_training())
    observed = rec(earnings=123.45)
    out, _ = impute_earnings(table(observed), model)
    assert list(out) == [observed]


def test_imputation_clamps_negative_predictions():
    model = fit_imputation(synthetic_training())
    weird = rec(paid_members=0, members=0, earnings=None)
    out, _ = impute_earnings(table(weird), model)
    [r] = out
    assert r.earnings >= 0.0


def test_imputation_single_category_collapses():
    recs = [r for r in synthetic_training() if r.category == "music"]
    model = fit_imputation(table(*recs))
    assert model.categories == ("music",)
    assert model.coef[1] == pytest.approx(5.0, abs=0.1)


def test_imputation_unseen_category_flagged():
    model = fit_imputation(synthetic_training())
    odd = rec(category="basketweaving", paid_members=10, earnings=None)
    out, n_unseen = impute_earnings(table(odd), model)
    [r] = out
    assert n_unseen == 1 and r.imputed


@pytest.mark.parametrize("year, category, unseen", [
    (2018, "music", 0), (2030, "music", 1), (2024, "basketweaving", 1),
    (2030, "basketweaving", 1)])
def test_imputation_counts_rows_with_an_unseen_year_or_category(year, category, unseen):
    # an unseen level is imputed as the reference level, 2018 or "comics"
    model = fit_imputation(synthetic_training())
    missing = rec(year=year, category=category, paid_members=10, earnings=None)
    as_reference = rec(year=2018 if year == 2030 else year,
                       category="comics" if category == "basketweaving" else category,
                       paid_members=10, earnings=None)
    out, n_unseen = impute_earnings(table(missing, as_reference), model)
    [r, ref] = out
    assert n_unseen == unseen and r.earnings == ref.earnings


def test_imputation_with_one_year_and_category_counts_no_level_unseen():
    # with a single level, the reference loses nothing
    model = fit_imputation(table(*(r for r in synthetic_training() if r.year == 2018)))
    assert (model.categories, model.years) == (("music",), (2018,))
    _, n_unseen = impute_earnings(table(rec(year=2030, category="art", earnings=None)), model)
    assert n_unseen == 0


def test_imputation_requires_enough_rows():
    with pytest.raises(SampleTooSmall):
        fit_imputation(synthetic_training(n=10))


@pytest.mark.parametrize("n_categories", [60, 57])
def test_imputation_refuses_as_many_coefficients_as_observed_rows(n_categories):
    # 2 + n_categories + 1 year coefficients for 60 rows
    rows = synthetic_training(n=60)
    wide = table(*(r._replace(category=f"cat{i % n_categories}", year=2021)
                   for i, r in enumerate(rows)))
    with pytest.raises(SingularDesign,
                       match=f"{n_categories + 3} coefficients for 60 observed rows"):
        fit_imputation(wide)


def test_imputation_fits_with_one_coefficient_fewer_than_observed_rows():
    rows = synthetic_training(n=60)
    narrow = table(*(r._replace(category=f"cat{i % 56}", year=2021)
                     for i, r in enumerate(rows)))
    assert fit_imputation(narrow).coef.size == 59


# -- floor ---------------------------------------------------------------------

def test_filter_floor_strict_default():
    rs = table(rec(earnings=10.00), rec(earnings=10.04), rec(earnings=9.0))
    kept, dropped = filter_floor(rs)
    assert [r.earnings for r in kept] == [10.04]
    assert dropped == 2


def test_filter_floor_inclusive_flag():
    rs = table(rec(earnings=10.00), rec(earnings=9.99))
    kept, dropped = filter_floor(rs, inclusive=True)
    assert [r.earnings for r in kept] == [10.00]
    assert dropped == 1


def test_filter_floor_empty():
    kept, dropped = filter_floor(table())
    assert list(kept) == [] and dropped == 0


# -- segmentation -----------------------------------------------------------------

def test_segment_buckets():
    rs = table(rec(platforms={"instagram"}, earnings=50.0),
               rec(platforms=(), earnings=60.0),
               rec(platforms={"twitter", "youtube"}, earnings=70.0))
    buckets = segment_single_platform(rs)
    assert set(buckets) == {"instagram", "patreon"}
    assert list(buckets["instagram"].values) == [50.0]
    assert list(buckets["patreon"].values) == [60.0]


def test_segment_sizes_account_for_discards():
    rng = make_rng(7)
    rs = []
    for i in range(300):
        k = int(rng.integers(0, 3))
        plats = [(), ("twitch",), ("twitch", "youtube")][k]
        rs.append(rec(creator_id=f"s{i}", platforms=plats, earnings=20.0 + i))
    buckets = segment_single_platform(table(*rs))
    n_multi = sum(1 for r in rs if len(r.platforms) > 1)
    assert sum(len(s) for s in buckets.values()) == len(rs) - n_multi


# -- summary stats ----------------------------------------------------------------

def test_summary_hand_example():
    s = summary_stats(make_sample([10, 20, 30, 40]), platform="x")
    assert (s.mean, s.median, s.q25, s.q75) == (25.0, 25.0, 17.5, 32.5)
    assert s.obs == 4 and not s.sd_degenerate


def test_summary_singleton_flagged():
    s = summary_stats(make_sample([42.0]))
    assert s.mean == s.median == s.min == s.max == 42.0
    assert s.sd == 0.0 and s.sd_degenerate


def test_summary_sd_and_mean_of_huge_values_are_finite():
    # deviations past about 1.3e154 square past the float range
    values = [1.0, 5.0, 1e160]
    assert summary_stats(make_sample(values)).sd == pytest.approx(
        statistics.stdev(values), rel=1e-12)
    assert summary_stats(make_sample([1e308, 1.5e308])).mean == pytest.approx(1.25e308,
                                                                              rel=1e-15)


def test_summary_matches_bruteforce():
    rng = make_rng(42)
    for _ in range(100):
        n = int(rng.integers(1, 60))
        vals = rng.lognormal(3, 1, n)
        s = summary_stats(make_sample(vals))
        ref = summary_naive(vals)
        for k in ("mean", "sd", "min", "q25", "median", "q75", "max"):
            assert getattr(s, k) == pytest.approx(ref[k], abs=1e-9), k


def test_stats_table_renders_published_row_shape():
    # formatter fidelity on a known row's magnitudes
    s = PlatformStats(platform="facebook", obs=8458, mean=149.0, median=47.0,
                      sd=631.0, min=10.00, q25=29.6, q75=99.0, max=35261.0)
    line = stats_table_csv([s]).splitlines()[1]
    assert line == "facebook,8458,149,47,631,10,29.6,99,35261"


# -- nsfw breakdown ----------------------------------------------------------------

def test_nsfw_share_quarter():
    rs = [rec(creator_id=f"n{i}", platforms={"twitch"}, nsfw=(i == 0), earnings=50)
          for i in range(4)]
    rows = nsfw_breakdown(table(*rs))
    assert len(rows) == 1
    platform, year, obs, mean, median, share = rows[0]
    assert (platform, year, obs, share) == ("twitch", 2021, 4, 0.25)


def test_nsfw_empty_buckets_omitted():
    rs = table(rec(platforms={"twitter", "youtube"}, earnings=50))
    assert nsfw_breakdown(rs) == []


def test_nsfw_table_renders_published_row_shape():
    rows = [("twitter", 2024, 23966, 399.0, 72.0, 0.58)]
    line = nsfw_table_csv(rows).splitlines()[1]
    assert line == "twitter,2024,23966,399,72,0.58"


# -- pipeline properties --------------------------------------------------------------

def full_pipeline(records, seed_note=""):
    model = fit_imputation(records)
    imputed, _ = impute_earnings(records, model)
    kept, _ = filter_floor(imputed)
    return segment_single_platform(kept)


def test_pipeline_order_insensitive(tmp_path):
    p = tmp_path / "f.csv"
    write_fixture(p, n_rows=1500, seed=5)
    records = parse_csv(p).records
    rng = make_rng(1)
    shuffled = list(records)
    rng.shuffle(shuffled)
    b1 = full_pipeline(records)
    b2 = full_pipeline(table(*shuffled))
    assert set(b1) == set(b2)
    for k in b1:
        assert np.array_equal(b1[k].values, b2[k].values)


def test_pipeline_idempotent_on_own_output(tmp_path):
    p = tmp_path / "f.csv"
    write_fixture(p, n_rows=1500, seed=6)
    records = parse_csv(p).records
    model = fit_imputation(records)
    once, _ = impute_earnings(records, model)
    once_kept, _ = filter_floor(once)
    twice, n_unseen = impute_earnings(once_kept, model)
    twice_kept, dropped = filter_floor(twice)
    assert dropped == 0 and n_unseen == 0
    assert list(twice_kept) == list(once_kept)


def test_imputation_never_alters_observed(tmp_path):
    p = tmp_path / "f.csv"
    write_fixture(p, n_rows=1200, seed=7)
    records = parse_csv(p).records
    model = fit_imputation(records)
    out, _ = impute_earnings(records, model)
    for before, after in zip(records, out):
        if before.earnings is not None:
            assert after.earnings == before.earnings and not after.imputed


def test_fixture_generator_parameters_are_read_only():
    assert list(PLATFORM_PARAMS) == ["patreon", "twitter", "instagram", "youtube",
                                     "facebook", "twitch"]
    with pytest.raises(TypeError):
        PLATFORM_PARAMS["patreon"] = PLATFORM_PARAMS["twitch"]
    with pytest.raises(TypeError):
        PLATFORM_PARAMS["patreon"]["alpha"] = 3.0


def test_fixture_has_documented_features(tmp_path):
    p = tmp_path / "f.csv"
    n = write_fixture(p, n_rows=2000, seed=8)
    assert n == 2000
    res = parse_csv(p)
    assert not res.diagnostics
    records = res.records
    missing = sum(1 for r in records if r.earnings is None)
    assert 0.05 < missing / n < 0.5
    multi = sum(1 for r in records if len(r.platforms) > 1)
    assert multi > 0
    assert {r.year for r in records} == {2018, 2021, 2024}


# -- the columnar table against the former row path ------------------------------------

def test_table_round_trips_its_records():
    rs = [rec(creator_id="a", platforms={"twitch"}, earnings=None),
          rec(creator_id="b", category="comics", nsfw=True, earnings=12.5, imputed=True),
          rec(creator_id="c", platforms={"twitter", "youtube"}, year=2018)]
    t = table(*rs)
    assert list(t) == rs and len(t) == 3
    assert list(t.take([2, 0])) == [rs[2], rs[0]]


def test_parse_short_row_rejected_with_missing_fields(tmp_path):
    p = tmp_path / "a.csv"
    write_csv(p, ["c1,2021,twitch,music,false,10,3,5", "c9,2021,youtube",
                  "c8,2021,twitch,music,false,10"])
    res = parse_csv(p)
    assert len(res.records) == 1
    assert res.diagnostics == [
        "line 3: missing field(s): category, nsfw, members, paid_members, earnings",
        "line 4: missing field(s): paid_members, earnings"]


def test_parse_row_lacking_only_optional_fields_is_kept(tmp_path):
    p = tmp_path / "a.csv"
    write_csv(p, ["c1,2021,twitch,music,false,10,3"])
    write_csv(tmp_path / "b.csv", ["c2,2021,music,false,10,3,7.5", "c3,2021,music,false,10,3"],
              header="creator_id,year,category,nsfw,members,paid_members,earnings,platforms")
    a, b = parse_csv(p), parse_csv(tmp_path / "b.csv")
    assert not a.diagnostics and not b.diagnostics
    [r] = a.records
    assert r.earnings is None and r.platforms == {"twitch"}
    assert [(r.platforms, r.earnings) for r in b.records] == [(frozenset(), 7.5),
                                                               (frozenset(), None)]


def test_parse_rejects_numbers_outside_int64(tmp_path):
    p = tmp_path / "a.csv"
    write_csv(p, [f"c1,2021,twitch,music,false,{2**63},3,5",
                  f"c2,2021,twitch,music,false,{2**63 - 1},{-2**63 - 1},5",
                  f"c3,{2**64},twitch,music,false,10,3,5",
                  "c4,2021,twitch,music,false,10,3,5"])
    res = parse_csv(p)
    assert [r.creator_id for r in res.records] == ["c4"]
    assert res.diagnostics == [f"line 2: members {2**63} does not fit in 64 bits",
                               f"line 3: paid_members {-2**63 - 1} does not fit in 64 bits",
                               f"line 4: year {2**64} does not fit in 64 bits"]


def test_parse_reports_physical_line_numbers(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("creator_id,year,platforms,category,nsfw,members,paid_members,earnings\n"
                 "\n\nc1,20x1,twitch,music,false,10,3,5\n"
                 '"c\n2",2021,twitch,music,false,10,3,abc\n'
                 "c3,2021,twitch,music,false,10,3,5\r\n\r\n"
                 "c4,2021,twitch,music,maybe,10,3,5\n", encoding="utf-8")
    res = parse_csv(p)
    assert [r.creator_id for r in res.records] == ["c3"]
    assert [d.split(":")[0] for d in res.diagnostics] == ["line 4", "line 6", "line 9"]
    assert res.diagnostics == oracles.parse_csv_rows(p).diagnostics


def test_parse_two_full_blocks_with_blank_lines_between(tmp_path, blocks_of_7):
    rows = [f"c{i},2021,twitch,music,false,10,3,{i}.5" for i in range(14)]
    rows[3] = "c3,20x1,twitch,music,false,10,3,3.5"
    rows[6] = "c6,2021,twitch"
    rows[9] = "c9,2021,twitch,music,maybe,10,3,9.5"
    p = tmp_path / "two.csv"
    p.write_text("creator_id,year,platforms,category,nsfw,members,paid_members,earnings\n"
                 + "\n".join(rows[:7]) + "\n\n\r\n" + "\n".join(rows[7:]) + "\n\n",
                 encoding="utf-8")
    got, want = parse_csv(p), oracles.parse_csv_rows(p)
    assert blocks_of_7 == [7, 7, 0]  # the last call parses the empty remainder
    assert list(got.records) == want.records and len(want.records) == 11
    assert got.diagnostics == want.diagnostics
    assert [d.split(":")[0] for d in got.diagnostics] == ["line 5", "line 8", "line 13"]


def test_platform_of_runs_once_per_distinct_platforms_field(tmp_path, monkeypatch):
    p = tmp_path / "f.csv"
    write_fixture(p, n_rows=1500, seed=9)
    seen = []
    original = pipeline.platform_of
    monkeypatch.setattr(pipeline, "platform_of", lambda s: seen.append(s) or original(s))
    records = filter_floor(parse_csv(p).records)[0]
    segment_single_platform(records)
    nsfw_breakdown(records)
    group_samples(records, PLATFORM_YEAR)
    group_samples(records, CATEGORY)
    with open(p, newline="", encoding="utf-8") as fh:
        fields = {row["platforms"] for row in csv.DictReader(fh)}
    assert len(seen) == len(fields)


FIELDS = {  # column -> (valid texts, texts that break a rule or test the parser)
    "creator_id": (["c1", "c2", " c3 ", "c1 "], ["c\n4", "c,5", '"c6"']),
    "year": (["2018", "2021", " 2024 ", "2_021"], ["20x1", "", "2021.0", str(2**63)]),
    "platforms": (["", "twitch", "YouTube", "twitter;youtube", " instagram ; facebook ",
                   ";", "TWITCH;twitch"], ["myspace", "twitch;zz;Aa"]),
    "category": (["music", " Music ", "comics", "ART", ""], []),
    "nsfw": (["true", "false", "YES", "0", "", " no "], ["maybe", "2"]),
    "members": (["100", "500", " 250 ", "400"], ["-1", "1o", "3.5", str(2**63), ""]),
    "paid_members": (["10", "0", "99", "50"], ["-2", "x", "600", str(-2**64)]),
    "earnings": (["", "12.5", " 30 ", "1e3", "250", "-0.0", "77.25", "1_000"],
                 ["nan", "inf", "-1", "abc", "1,5", "1e400"]),
}
COLUMNS = tuple(FIELDS)


@st.composite
def csv_rows(draw):
    """A CSV text of valid rows and rows breaking up to three rules, with
    blank lines, short rows, extra fields and quoted fields."""
    rows = []
    for _ in range(draw(st.integers(60, 150))):
        broken = draw(st.permutations(COLUMNS))[:draw(st.sampled_from([0] * 18 + [1, 1, 2, 3]))]
        row = [draw(st.sampled_from(FIELDS[c][1] if c in broken and FIELDS[c][1]
                                    else FIELDS[c][0])) for c in COLUMNS]
        cut = draw(st.sampled_from([8] * 30 + [3, 6, 7, 9]))
        row = row[:cut] + ["extra"] * (cut - 8)
        rows.append(row)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for row in rows:
        writer.writerow(row)
        if draw(st.integers(0, 20)) == 0:
            buf.write("\n")
    return buf.getvalue()


def assert_same_samples(got, want):
    assert list(got) == list(want)
    for key in want:
        assert np.array_equal(got[key].values, want[key].values), key


# no shrink phase: shrinking a failing example of 60-150 rows took minutes
@settings(deadline=None, max_examples=80, suppress_health_check=[HealthCheck.too_slow],
          phases=[p for p in Phase if p is not Phase.shrink])
@given(text=csv_rows(), block=st.sampled_from([7, 64, pipeline._BLOCK]))
def test_columnar_stages_match_the_row_oracle(tmp_path_factory, text, block):
    p = tmp_path_factory.mktemp("prop") / "rows.csv"
    p.write_text(text, encoding="utf-8")
    with mock.patch.object(pipeline, "_BLOCK", block):
        got = parse_csv(p)
    want = oracles.parse_csv_rows(p)
    assert list(got.records) == want.records
    assert got.diagnostics == want.diagnostics
    try:
        model_want = oracles.fit_imputation_rows(want.records)
    except SampleTooSmall:
        with pytest.raises(SampleTooSmall):
            fit_imputation(got.records)
        return
    model = fit_imputation(got.records)
    assert np.array_equal(model.coef, model_want.coef)
    assert (model.categories, model.years, model.n_train) == (
        model_want.categories, model_want.years, model_want.n_train)
    assert model.r_squared == model_want.r_squared
    imputed, n_unseen = impute_earnings(got.records, model)
    imputed_want, n_unseen_want = oracles.impute_rows(want.records, model_want)
    assert list(imputed) == imputed_want and n_unseen == n_unseen_want
    kept, dropped = filter_floor(imputed)
    kept_want, dropped_want = oracles.filter_floor_rows(imputed_want)
    assert list(kept) == kept_want and dropped == dropped_want
    for by in (PLATFORM, PLATFORM_YEAR, CATEGORY):
        assert_same_samples(group_samples(kept, by), oracles.group_samples_rows(kept_want, by))
    assert nsfw_breakdown(kept) == oracles.nsfw_rows(kept_want)


def test_run_pipeline_matches_the_row_oracle_flow(tmp_path, monkeypatch, capsys):
    p = tmp_path / "f.csv"
    write_fixture(p, n_rows=6000, seed=12)
    with open(p, "a", encoding="utf-8") as fh:
        fh.write("b1,20x1,,art,false,1,1,5.0\nb2,2021,myspace,art,false,1,1,5.0\n"
                 "\nb3,2021,twitch,art,false,1,3,5.0\nb4,2021,twitch,art,maybe,1,1,\n")
    options = dict(floor=10.0, floor_inclusive=False, min_tail=50, bootstrap=0,
                   seed=4, workers=1)
    monkeypatch.setattr(pipeline, "_BLOCK", 1000)  # parse in several blocks
    columnar = run_pipeline(p, tmp_path / "columnar", **options)
    err = capsys.readouterr().err
    for name, stage in (("parse_csv", oracles.parse_csv_rows),
                        ("fit_imputation", oracles.fit_imputation_rows),
                        ("impute_earnings", oracles.impute_rows),
                        ("filter_floor", oracles.filter_floor_rows),
                        ("segment_single_platform", oracles.segment_rows),
                        ("group_samples", oracles.group_samples_rows),
                        ("nsfw_breakdown", oracles.nsfw_rows)):
        monkeypatch.setattr(pipeline, name, stage)
    rows = run_pipeline(p, tmp_path / "rows", **options)
    assert capsys.readouterr().err == err
    assert "rejected 4 malformed rows" in err
    assert columnar["outputs"] == rows["outputs"]
    assert len(columnar["outputs"]) >= 40
    for rel in columnar["outputs"]:
        assert (tmp_path / "columnar" / rel).read_bytes() == (tmp_path / "rows" / rel).read_bytes()
    assert {k: v for k, v in columnar.items() if k not in ("wall_clock_s", "input")} == \
        {k: v for k, v in rows.items() if k not in ("wall_clock_s", "input")}
    assert json.loads((tmp_path / "rows" / "manifest.json").read_text())["input"] == \
        columnar["input"]


def test_category_text_with_commas_and_quotes_writes_well_formed_csv(tmp_path):
    p = tmp_path / "f.csv"
    write_fixture(p, n_rows=3000, seed=13)
    renamed = {"comics": "comics, manga", "music": 'say "hi"'}
    with open(p, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    with open(p, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows({**r, "category": renamed.get(r["category"], r["category"])}
                         for r in rows)
    manifest = run_pipeline(p, tmp_path / "out", floor=10.0, floor_inclusive=False,
                            min_tail=50, bootstrap=0, seed=4, workers=1)
    tables = {}
    for rel in manifest["outputs"]:
        if rel.endswith(".csv"):
            with open(tmp_path / "out" / rel, newline="", encoding="utf-8") as fh:
                header, *body = csv.reader(fh)
            assert all(len(row) == len(header) for row in body), rel
            tables[rel] = body
    for rel, column in (("alpha_by_category.csv", 0),
                        ("figures/alpha_by_category_alpha.csv", 2)):
        assert set(renamed.values()) <= {row[column] for row in tables[rel]}
