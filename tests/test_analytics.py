import math

import numpy as np
import pytest

from rhombikit.analytics import (
    DesignMeta,
    RotationDirection,
    Trajectory,
    TrialStats,
    net_displacement,
    path_length,
    report_table,
    rotation_direction,
    summarize,
    trial_stats,
)
from rhombikit.errors import ValidationError
from rhombikit.geometry import ContactType

# six-trial fixture with exact integer moments: mean 126, sample SD 34
# (deviations 15, 36, 37 satisfy 15^2 + 36^2 + 37^2 = 2890 = 5 * 34^2 / 2 * 2)
DISTANCES = [111.0, 141.0, 90.0, 162.0, 89.0, 163.0]
# mean 6, sample SD 4 (deviations 2, 6, 0 give 2 * (4 + 36 + 0) = 80 = 5 * 16)
NETS = [8.0, 4.0, 12.0, 0.0, 6.0, 6.0]


def _traj(points, trial="t", heading=None, dt=1.0):
    pts = np.asarray(points, dtype=float)
    t = np.arange(len(pts)) * dt
    return Trajectory(trial, t, pts, heading)


def _circle(r=20.0, step_deg=1.0, ccw=True, turns=1.0, center=(0.0, 0.0)):
    n = int(round(360 * turns / step_deg))
    ang = np.radians(np.arange(n + 1) * step_deg)
    if not ccw:
        ang = -ang
    return np.stack(
        [center[0] + r * np.cos(ang), center[1] + r * np.sin(ang)], axis=1
    )


class TestTrajectoryValidation:
    def test_needs_two_samples(self):
        with pytest.raises(ValidationError):
            _traj([(0, 0)])

    def test_strictly_increasing_time(self):
        with pytest.raises(ValidationError):
            Trajectory("t", np.array([0.0, 0.0]), np.zeros((2, 2)))

    def test_xy_needs_two_columns(self):
        with pytest.raises(
            ValidationError, match=r"^trial 't': need t \(N,\) and xy \(N, 2\) samples$"
        ):
            Trajectory("t", np.arange(3.0), np.zeros((3, 3)))

    def test_heading_length_checked(self):
        with pytest.raises(ValidationError):
            Trajectory("t", np.array([0.0, 1.0]), np.zeros((2, 2)), np.zeros(3))

    @pytest.mark.parametrize(
        "field, index, bad",
        [("xy", (1, 0), math.nan), ("xy", (2, 1), math.inf), ("t", 2, math.inf),
         ("t", 0, -math.inf), ("heading", 1, math.nan)],
    )
    def test_non_finite_samples_rejected(self, field, index, bad):
        # NaN xy used to reach trial_stats as a broken distance invariant,
        # an infinite x gave distance inf, an infinite t was accepted and a
        # NaN heading labelled the trial Indeterminate
        samples = {"t": np.arange(3.0), "xy": np.ones((3, 2)), "heading": np.zeros(3)}
        samples[field][index] = bad
        with pytest.raises(ValidationError, match="trial 'T7': samples must be finite"):
            Trajectory("T7", samples["t"], samples["xy"], samples["heading"])


    def test_holds_read_only_copies(self):
        # the caller's arrays stay its own and writeable
        t, xy, heading = np.arange(3.0), np.ones((3, 2)), np.zeros(3)
        tr = Trajectory("T", t, xy, heading)
        assert all(a.flags.writeable for a in (t, xy, heading))
        assert not any(a.flags.writeable for a in (tr.t, tr.xy, tr.heading))
        t[0] = -5.0
        assert tr.t[0] == 0.0


class TestPathLength:
    def test_straight_segment(self):
        assert path_length(_traj([(0, 0), (79, 0)])) == pytest.approx(79.0)

    def test_circle_converges(self):
        tr = _traj(_circle(r=20.0, step_deg=1.0))
        assert path_length(tr) == pytest.approx(2 * math.pi * 20.0, rel=1e-3)

    def test_repeated_point(self):
        assert path_length(_traj([(3, 4), (3, 4), (3, 4)])) == 0.0

    def test_refinement_monotone(self):
        coarse = path_length(_traj(_circle(step_deg=10.0)))
        fine = path_length(_traj(_circle(step_deg=1.0)))
        assert fine >= coarse

    def test_ge_net_displacement_random(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            pts = rng.normal(size=(rng.integers(2, 40), 2)) * 10
            tr = _traj(pts)
            assert path_length(tr) >= net_displacement(tr) - 1e-12


class TestNetDisplacement:
    def test_closed_loop_zero(self):
        assert net_displacement(_traj(_circle())) == pytest.approx(0.0, abs=1e-9)

    def test_straight_equals_path_length(self):
        tr = _traj([(0, 0), (10, 0), (30, 0)])
        assert net_displacement(tr) == pytest.approx(path_length(tr))

    def test_out_and_back_fixture(self):
        # total walking 126 with a 6 cm net offset
        tr = _traj([(0, 0), (66, 0), (6, 0)])
        assert path_length(tr) == pytest.approx(126.0, abs=1e-9)
        assert net_displacement(tr) == pytest.approx(6.0, abs=1e-9)


class TestRotationDirection:
    def test_ccw_circle(self):
        assert rotation_direction(_traj(_circle(ccw=True))) is RotationDirection.CCW

    def test_cw_circle(self):
        assert rotation_direction(_traj(_circle(ccw=False))) is RotationDirection.CW

    def test_straight_line_indeterminate(self):
        pts = [(i * 2.0, 0.0) for i in range(50)]
        assert rotation_direction(_traj(pts)) is RotationDirection.INDETERMINATE

    def test_reflection_flips(self):
        pts = _circle(ccw=True)
        mirrored = pts * np.array([1.0, -1.0])
        assert rotation_direction(_traj(pts)) is RotationDirection.CCW
        assert rotation_direction(_traj(mirrored)) is RotationDirection.CW

    def test_translation_rotation_invariance(self):
        pts = _circle(ccw=True, turns=0.9)
        ang = 0.7
        rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
        moved = pts @ rot.T + np.array([100.0, -50.0])
        assert rotation_direction(_traj(pts)) == rotation_direction(_traj(moved))

    def test_half_turn_threshold(self):
        # a quarter turn stays indeterminate at the default threshold
        quarter = _circle(turns=0.25)
        assert rotation_direction(_traj(quarter)) is RotationDirection.INDETERMINATE
        assert (
            rotation_direction(_traj(quarter), theta_min=math.pi / 4)
            is RotationDirection.CCW
        )

    def test_tiny_steps_skipped(self):
        # sub-threshold jitter around a point carries no direction
        rng = np.random.default_rng(3)
        pts = rng.normal(scale=0.01, size=(100, 2))
        assert rotation_direction(_traj(pts)) is RotationDirection.INDETERMINATE

    def test_marker_heading_used_directly(self):
        # stationary body spinning in place: position says nothing, the
        # marker heading says two full CCW turns
        n = 100
        heading = np.linspace(0.0, 4 * math.pi, n)
        pts = np.zeros((n, 2))
        tr = Trajectory("t", np.arange(n, dtype=float), pts, heading)
        assert rotation_direction(tr) is RotationDirection.CCW

    def test_too_few_usable_samples(self):
        assert (
            rotation_direction(_traj([(0, 0), (10, 0)]))
            is RotationDirection.INDETERMINATE
        )

    # huge-int: beyond the float range, refused rather than an OverflowError
    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, -1.0, pytest.param(10**400, id="huge-int")]
    )
    @pytest.mark.parametrize("name", ["theta_min"])
    def test_bad_thresholds_rejected(self, name, bad):
        # two clockwise turns: theta_min=-inf used to label this CCW, and
        # nan labelled every trial indeterminate
        tr = _traj(_circle(ccw=False, turns=2.0))
        with pytest.raises(ValidationError, match=name):
            rotation_direction(tr, **{name: bad})
        with pytest.raises(ValidationError, match=name):
            trial_stats(tr, **{name: bad})

    def test_zero_thresholds_accepted(self):
        tr = _traj(_circle(ccw=False, turns=2.0))
        assert rotation_direction(tr, theta_min=0.0) is RotationDirection.CW


class TestTrialStats:
    def test_invariant_enforced(self):
        with pytest.raises(ValidationError):
            TrialStats(5.0, 6.0, RotationDirection.CW, 60.0)

    def test_builder(self):
        tr = _traj(_circle())
        st = trial_stats(tr)
        assert st.duration == pytest.approx(len(_circle()) - 1)
        assert st.rotation is RotationDirection.CCW


def _fixture_trials():
    return [
        TrialStats(d, n, RotationDirection.CW, 60.0)
        for d, n in zip(DISTANCES, NETS)
    ]


DESIGN_A = DesignMeta("Design A", 2, 1, 9.5, 77.0, ContactType.POINT)
DESIGN_D = DesignMeta("Design D", 7, 3, 21.0, 252.0, ContactType.FACE)


class TestDesignMeta:
    @pytest.mark.parametrize(
        "passive, active", [(2, 0), (-1, 1), (True, 1), (2, 1.0)],
        ids=["no-active", "negative-passive", "bool", "float"],
    )
    def test_cell_counts_checked(self, passive, active):
        # active=0 used to reach report_table's ratio as a ZeroDivisionError
        with pytest.raises(ValidationError):
            DesignMeta("X", passive, active, 9.5, 77.0, ContactType.POINT)

    def test_contact_must_be_a_contact_type(self):
        # the string used to reach report_table as an AttributeError
        with pytest.raises(ValidationError, match="ContactType"):
            DesignMeta("X", 2, 1, 9.5, 77.0, "point")

    def test_numpy_counts_stored_as_ints(self):
        meta = DesignMeta("X", np.int64(2), np.int64(1), 9.5, 77.0, ContactType.POINT)
        assert type(meta.passive) is int and type(meta.active) is int
        assert meta == DesignMeta("X", 2, 1, 9.5, 77.0, ContactType.POINT)

    def test_body_measures_stored_as_floats(self):
        meta = DesignMeta("X", 2, 1, np.int64(9), 77, ContactType.POINT)
        assert type(meta.body_length_cm) is float and type(meta.body_weight_g) is float
        assert meta == DesignMeta("X", 2, 1, 9.0, 77.0, ContactType.POINT)

    @pytest.mark.parametrize("name", ["body_length_cm", "body_weight_g"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, True, "9.5"])
    def test_body_measures_must_be_finite_numbers(self, name, bad):
        fields = dict(body_length_cm=9.5, body_weight_g=77.0)
        fields[name] = bad
        with pytest.raises(ValidationError, match=name):
            DesignMeta("X", 2, 1, contact=ContactType.POINT, **fields)


class TestSummarize:
    def test_six_trial_fixture_moments(self):
        s = summarize(_fixture_trials(), DESIGN_A)
        assert s.mean_distance == pytest.approx(126.0, abs=1e-12)
        assert s.sd_distance == pytest.approx(34.0, abs=1e-12)
        assert s.mean_net_displacement == pytest.approx(6.0, abs=1e-12)
        assert s.sd_net_displacement == pytest.approx(4.0, abs=1e-12)

    def test_two_pass_reference(self):
        s = summarize(_fixture_trials(), DESIGN_A)
        mean = sum(DISTANCES) / len(DISTANCES)
        var = sum((d - mean) ** 2 for d in DISTANCES) / (len(DISTANCES) - 1)
        assert s.mean_distance == pytest.approx(mean, rel=1e-12)
        assert s.sd_distance == pytest.approx(math.sqrt(var), rel=1e-12)

    def test_single_trial_no_sd(self):
        s = summarize(_fixture_trials()[:1], DESIGN_A)
        assert s.sd_distance is None and s.sd_net_displacement is None

    def test_ratio_formatting(self):
        assert summarize(_fixture_trials(), DESIGN_D).ratio_text == "2.33 to 1"
        assert summarize(_fixture_trials(), DESIGN_A).ratio_text == "2 to 1"
        meta_c = DesignMeta("C", 5, 2, 15.0, 175.0, ContactType.EDGE)
        assert summarize(_fixture_trials(), meta_c).ratio_text == "2.5 to 1"

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            summarize([], DESIGN_A)


class TestReportTable:
    def test_unknown_format_rejected(self):
        with pytest.raises(ValidationError, match="^unknown table format 'html'$"):
            report_table([summarize(_fixture_trials(), DESIGN_A)], "html")

    def test_fixture_renders_verbatim_cells(self):
        table = report_table([summarize(_fixture_trials(), DESIGN_A)])
        assert "| No. of passive cells | 2 |" in table
        assert "| Ratio of passive to active | 2 to 1 |" in table
        assert "| Body length (cm) | 9.5 |" in table
        assert "| Body weight (g) | 77 |" in table
        assert "| Type of surface contacts | Point |" in table
        assert "| Avg. distance traveled (cm) | 126 +/- 34 SD |" in table
        assert "| Avg. net displacement (cm) | 6 +/- 4 SD |" in table
        assert "| No. of trials | 6 |" in table

    def test_row_order(self):
        table = report_table([summarize(_fixture_trials(), DESIGN_A)])
        labels = [
            line.split("|")[1].strip()
            for line in table.splitlines()[2:]
        ]
        assert labels == [
            "No. of passive cells",
            "No. of active cells",
            "Ratio of passive to active",
            "Body length (cm)",
            "Body weight (g)",
            "Type of surface contacts",
            "Avg. distance traveled (cm)",
            "Avg. net displacement (cm)",
            "No. of trials",
        ]

    def test_single_trial_without_plus_minus(self):
        table = report_table([summarize(_fixture_trials()[:1], DESIGN_A)])
        row = [l for l in table.splitlines() if "Avg. distance" in l][0]
        assert "+/-" not in row

    def test_csv_and_markdown_share_values(self):
        summaries = [
            summarize(_fixture_trials(), DESIGN_A),
            summarize(_fixture_trials()[:3], DESIGN_D),
        ]
        md = report_table(summaries, "markdown")
        cv = report_table(summaries, "csv")
        md_cells = [
            [c.strip() for c in line.strip("|").split("|")]
            for line in md.splitlines()[2:]
        ]
        import csv as _csv
        import io as _io

        cv_cells = list(_csv.reader(_io.StringIO(cv)))[1:]
        assert md_cells == cv_cells

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            report_table([])

    def test_four_design_characterization_table(self):
        # the four as-built designs: metadata cells must render verbatim,
        # behavioral cells from trial fixtures constructed to hit the
        # target moments exactly (up to float epsilon, far below the
        # two-decimal display rounding)
        def trials(mean_d, sd_d, mean_n, sd_n):
            # zero-mean, unit-sample-SD shape with min above -22/21 so no
            # design's net displacement goes negative
            e = np.array([3.5, 0.5, 0.0, -1.0, -1.5, -1.5])
            e /= e.std(ddof=1)
            return [
                TrialStats(
                    float(mean_d + sd_d * v),
                    float(mean_n + sd_n * v),
                    RotationDirection.INDETERMINATE,
                    60.0,
                )
                for v in e
            ]

        designs = [
            (DesignMeta("Design A", 2, 1, 9.5, 77, ContactType.POINT), (126, 34, 6, 4)),
            (DesignMeta("Design B", 3, 1, 11.5, 98, ContactType.EDGE), (76, 14, 22, 21)),
            (DesignMeta("Design C", 5, 2, 15, 175, ContactType.EDGE), (106, 22, 9, 5)),
            (DesignMeta("Design D", 7, 3, 21, 252, ContactType.FACE), (79, 26, 16, 10)),
        ]
        summaries = [summarize(trials(*moments), meta) for meta, moments in designs]
        table = report_table(summaries)
        expected_rows = [
            "| No. of passive cells | 2 | 3 | 5 | 7 |",
            "| No. of active cells | 1 | 1 | 2 | 3 |",
            "| Ratio of passive to active | 2 to 1 | 3 to 1 | 2.5 to 1 | 2.33 to 1 |",
            "| Body length (cm) | 9.5 | 11.5 | 15 | 21 |",
            "| Body weight (g) | 77 | 98 | 175 | 252 |",
            "| Type of surface contacts | Point | Edge | Edge | Face |",
            "| Avg. distance traveled (cm) | 126 +/- 34 SD | 76 +/- 14 SD "
            "| 106 +/- 22 SD | 79 +/- 26 SD |",
            "| Avg. net displacement (cm) | 6 +/- 4 SD | 22 +/- 21 SD "
            "| 9 +/- 5 SD | 16 +/- 10 SD |",
            "| No. of trials | 6 | 6 | 6 | 6 |",
        ]
        for row in expected_rows:
            assert row in table, row
