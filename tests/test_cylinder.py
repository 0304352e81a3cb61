"""Round-cylinder layer: radii, perimeter factors, argmin partition, transforms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from gausscvx import cylinder as cyl
from gausscvx import panels as pn
from gausscvx import specfun as sf
from gausscvx import verify as vf

import oracles


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that appends to the returned list."""
    calls = []
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


# frozen n=2 crossing abscissas, computed independently below with brentq
S_CROSS_N2 = 0.7062610461
PHI_CROSS_N2 = 0.9846941899

# (R_k, s_k, phi_k) at the double a = 1.0 - 10.0**-j, keyed by (k, j).  Frozen
# from mpmath at 40 digits, rounded to 20: R^2/2 solves the regularized upper
# incomplete gamma equation Q(k/2, x) = 1 - a (for k = 1, R = sqrt(2) erfinv(a);
# for k = 2, R^2 = -2 ln(1 - a)), then s = R^(k-1) e^{-R^2/2} / c and
# phi = c (R^2 - k + 1) / (R^k e^{-R^2/2}) with c = Gamma(k/2) 2^((k-2)/2).
NEAR_ONE_PROFILES = {
    (1,  3): (3.2905267314918945433, 0.0035543806938542578592, 925.76654413564000226),
    (1,  4): (3.8905918864131206894, 0.00041214144024796041582, 9439.9434428927806629),
    (1,  5): (4.4171734134700061643, 0.000046247560794367653164, 95511.489419090833424),
    (1,  6): (4.8916384756929317718, 5.0817501342744614736e-6, 962589.33368264227311),
    (1,  7): (5.326723886480143562, 5.5030947560752967015e-7, 9679506.0281300016822),
    (1,  8): (5.7307288673840480002, 5.8959325541914598677e-8, 97198005.823693362874),
    (1,  9): (6.1094102093834491114, 6.2653091396065693611e-9, 975117120.83964145195),
    (1, 10): (6.4669510747324189844, 6.6149449517695558106e-10, 9776273456.3686018798),
    (1, 11): (6.8065024788315477315, 6.9476722340311580467e-11, 97968099955.72141127),
    (1, 12): (7.1305098928792724473, 7.2655507081403016355e-12, 981413547205.75690757),
    (1, 13): (7.4408610854272122221, 7.5731417666272679439e-13, 9825329189289.7344955),
    (1, 14): (7.7393579909266594078, 7.8582889618535438448e-14, 98486553860462.366489),
    (1, 15): (8.0269570180338918552, 8.1414276986071336378e-15, 985939728901255.75134),
    (2,  3): (3.716922188849838208, 0.0037169221888498415093, 927.61758634945719553),
    (2,  4): (4.29193205257872014, 0.00042919320525782474518, 9457.1318976219832598),
    (2,  5): (4.7985259121890296293, 0.00004798525912167191412, 95657.055181404536244),
    (2,  6): (5.2565217697514615049, 5.2565217699026162814e-6, 963808.79314693872351),
    (2,  7): (5.6776924276478160835, 5.6776924246593294722e-7, 9689789.6608937992964),
    (2,  8): (6.0697085167127434653, 6.0697085472115676332e-8, 97285658.998527245877),
    (2,  9): (6.437898083261079867, 6.4378979011848875076e-9, 975872556.41564123109),
    (2, 10): (6.7861404122225601447, 6.7861409737103355039e-10, 9782851948.8312843509),
    (2, 11): (7.117364110426574902, 7.1173646993199219343e-11, 98025926056.016869565),
    (2, 12): (7.4338473535435685016, 7.4336829040529874273e-12, 981926132970.15939561),
    (2, 13): (7.7373503619868169292, 7.739756253844067905e-13, 9829905364148.9173656),
    (2, 14): (8.029569216258968937, 8.0231513595408721554e-14, 98527737787955.056635),
    (2, 15): (8.3113868869570597094, 8.304743779620597775e-15, 986312189877170.623),
    (3,  3): (4.0331422236561567892, 0.0038111744213478196451, 928.12623286085824558),
    (3,  4): (4.5942913997873974582, 0.00043947970464661813863, 9463.3916229782641675),
    (3,  5): (5.0893761646857557087, 0.000049065437023746618853, 95717.086765407164494),
    (3,  6): (5.5375851872593588413, 5.3677637621290002661e-6, 964352.59781501989711),
    (3,  7): (5.9502732358286652051, 5.7909872629574019517e-7, 9694640.9349095972536),
    (3,  8): (6.3348243075395629586, 6.1843013899613717994e-8, 97328845.71784816455),
    (3,  9): (6.6963628477227291121, 6.5532809394081197855e-9, 976258046.74710284099),
    (3, 10): (7.0386188814828177291, 6.9019614308292427902e-10, 9786308277.345927456),
    (3, 11): (7.3644085887696672746, 7.2333713818523453692e-11, 98057071264.693453396),
    (3, 12): (7.675923440596883519, 7.5496910265584311636e-12, 982208204911.13910499),
    (3, 13): (7.9748562573252017015, 7.8556729727097739578e-13, 9832471469792.2435969),
    (3, 14): (8.262845305259662664, 8.1387098492868774465e-14, 98551221025766.225336),
    (3, 15): (8.5407340826845435012, 8.4199983410847534879e-15, 986527768499536.80267),
    (4,  3): (4.2973046148607116739, 0.0038773758565095189648, 928.2547602488925226),
    (4,  4): (4.8489939621524667211, 0.00044688706592489210379, 9466.1699779340172276),
    (4,  5): (5.3360336790556124118, 0.00004985822741290423902, 95747.855163045979614),
    (4,  6): (5.7772693880118557122, 5.450656319860817276e-6, 964653.17547319375009),
    (4,  7): (6.1838176006822865186, 5.8764677440881160104e-7, 9697458.8166795650623),
    (4,  8): (6.5628934533186211917, 6.2716725052443780848e-8, 97354860.243924000977),
    (4,  9): (6.9194982325364150575, 6.6420492183937686496e-9, 976496947.03743663173),
    (4, 10): (7.2572696683599322135, 6.9917666771327386797e-10, 9788500361.9243713724),
    (4, 11): (7.5789531043837590781, 7.3239441038206004773e-11, 98077210432.026290165),
    (4, 12): (7.8866844781636594347, 7.6408235452369071406e-12, 982393645249.90476351),
    (4, 13): (8.1821129072498815587, 7.9472381954485657723e-13, 9834182965157.7042971),
    (4, 14): (8.4668382360352030244, 8.2304501671645440297e-14, 98567083727518.01028),
    (4, 15): (8.7416781861934065207, 8.5119155309390679302e-15, 986675046663350.49352),
}


# weak_F's slope exp(W(a)) at the double a = 1.0 - 10.0**-j, keyed by (n, j).
# Frozen from mpmath at 50 digits, rounded to 20, as
# R_n(a) e^{I(a)} / (2 a R_n(1/2)): R_n^2/2 solves the regularized incomplete
# gamma equation P(n/2, x) = a (bisection on Q(n/2, x) = 1 - a above 1/2), and
# I(a) = int_{1/2}^a phi_inv(s)^2 / (2 e^2 n^2 s) ds, taken in q = phi_inv(s)
# = sqrt(2) erfinv(s), where ds = sqrt(2/pi) e^{-q^2/2} dq; no gausscvx code.
# The same route reproduces WEAK_F_REFERENCE's slopes to 1e-21.
WEAK_SLOPE_NEAR_ONE = {
    (1,  3): 2.6318966728557448247,
    (1,  4): 3.1113668303006688959,
    (1,  5): 3.5325203124334585935,
    (1,  6): 3.9119761584989698953,
    (1,  7): 4.2599285256294839844,
    (1,  8): 4.5830229106806810234,
    (1,  9): 4.88586494684999227,
    (1, 10): 5.1718003100659837143,
    (1, 11): 5.4433489955005038554,
    (1, 12): 5.7024667197732549204,
    (1, 13): 5.9506631844904381337,
    (1, 14): 6.1893794467427254169,
    (1, 15): 6.4193803730946261258,
    (2,  3): 1.6099182360805276739,
    (2,  4): 1.8576458009660951643,
    (2,  5): 2.0767765420000902923,
    (2,  6): 2.2749814946296136202,
    (2,  7): 2.457259597459980101,
    (2,  8): 2.6269208893010598798,
    (2,  9): 2.786270353448926346,
    (2, 10): 2.936986823110061474,
    (2, 11): 3.0803377674658380731,
    (2, 12): 3.217309161844231829,
    (2, 13): 3.3486628153791957829,
    (2, 14): 3.4751327780244573756,
    (2, 15): 3.5971011923307151925,
    (3,  3): 1.3233125798369251533,
    (3,  4): 1.5061987172859453516,
    (3,  5): 1.6683764913285161711,
    (3,  6): 1.8152925988695557993,
    (3,  7): 1.9505756992373195539,
    (3,  8): 2.0766363157975991024,
    (3,  9): 2.1951532521431714432,
    (3, 10): 2.3073491490513063651,
    (3, 11): 2.4141471751276855447,
    (3, 12): 2.5162657214273793854,
    (3, 13): 2.6142597159680221754,
    (3, 14): 2.7086662033529684019,
    (3, 15): 2.7997616930897309247,
}


# conjecture_F and its slope as the closed form beta_k R_k(a) + alpha_k and
# beta_k / s_k(a), keyed by (n, j) at the double a = 1.0 - 10.0**-j and by
# (n, a) at middle points.  Frozen from mpmath at 50 digits, rounded to 20,
# with R_k and s_k as in NEAR_ONE_PROFILES: the crossing c of phi_1 = phi_n
# by bisection, beta_n = s_n(1/2), beta_1 = beta_n s_1(c) / s_n(c) and
# alpha_1 = beta_n R_n(c) - beta_1 R_1(c); no gausscvx code.
CONJECTURE_NEAR_ONE = {
    (2,  3): (2.1874952947752893973, 157.80230150906901714),
    (2,  4): (2.5240655118412388778, 1360.914965484059294),
    (2,  5): (2.8194195370015921208, 12127.979168966518128),
    (2,  6): (3.0855419866604842281, 110373.28461834804585),
    (2,  7): (3.3295768051296606844, 1019225.5063578431019),
    (2,  8): (3.5561789382536915488, 9513159.2631748014575),
    (2,  9): (3.7685773093810650786, 89523029.340069345377),
    (2, 10): (3.9691182101041666972, 847912504.2145070086),
    (2, 11): (4.1595690117303571636, 8073055766.537879667),
    (2, 12): (4.3413013532647284328, 77198477646.186495038),
    (2, 13): (4.5153740641793436152, 740629808887.6238283),
    (2, 14): (4.6827978305046050176, 7137551910502.7397859),
    (2, 15): (4.8441090917694658696, 68893254929422.591638),
    (3,  3): (2.3319070445142561799, 151.13342215157405708),
    (3,  4): (2.6542534755423973801, 1303.4013700939374502),
    (3,  5): (2.9371255511829476576, 11615.438926177971367),
    (3,  6): (3.1920014062476906947, 105708.80182962322488),
    (3,  7): (3.4257230749856156676, 976152.04117399384069),
    (3,  8): (3.6427487806842941485, 9111123.8630060508664),
    (3,  9): (3.8461709892384273261, 85739698.699913295284),
    (3, 10): (4.038236835666526295, 812078893.79030791359),
    (3, 11): (4.2206390004386447949, 7731880546.4142619306),
    (3, 12): (4.3946911557560986843, 73935994595.677236686),
    (3, 13): (4.5614073839235028017, 709330069930.69705631),
    (3, 14): (4.7217556583926683801, 6835911996865.2009923),
    (3, 15): (4.876249748234215854, 65981758701067.140095),
}
CONJECTURE_MIDDLE = {
    (2, 0.05): (0.1885571594672605397, 1.934767720242461567),
    (2, 0.5): (0.69314718055994530942, 1.0),
    (2, 0.9): (1.263340953665392104, 2.7433100246963580286),
    (2, 0.99): (1.7866290446914512716, 19.394862442765559663),
    (3, 0.05): (0.34305346640605700777, 2.4563751336263187024),
    (3, 0.5): (0.88959079453441130329, 1.0),
    (3, 0.9): (1.4460175242880209265, 2.6408305790530142588),
    (3, 0.99): (1.9479817936093614752, 18.575216616633041975),
}

# weak_F and its slope exp(W(a)), keyed by (n, a).  Frozen from mpmath at 34
# digits, rounded to 22, by nested quadrature of F = int_0^a exp(W(t)) dt,
# W(t) = int_{1/2}^t w(s) ds with w the defining form in the ``cylinder``
# module docstring; both integrals run in the radius R, where
# s = P(n/2, R^2/2) and ds = g_{n-1}(R) / c dR.  A second route, W = log(R_n(t) / R_n(1/2)) - log 2t
# + int_{1/2}^t phi_inv(s)^2 / s ds / (2 e^2 n^2) from d log R_n / ds =
# c / g_n(R), agrees to every digit kept.
WEAK_F_REFERENCE = {
    (1, 1e-6): (9.159178560073362176241e-7, 0.9159178560075285684994),
    (1, 0.05): (0.04580792206470274475727, 0.9166400093481327467807),
    (1, 0.3): (0.27745213405672898199, 0.9432477015355513921758),
    (1, 0.7): (0.6812385802772811381169, 1.115467926574553760062),
    (1, 0.95): (1.003656161225410915956, 1.618401731667521388251),
    (1, 0.999): (1.095532187406822279346, 2.631896672855744824664),
    (2, 1e-6): (0.00119684466980234520668, 598.4224346382913257428),
    (2, 0.05): (0.2687580395144531126038, 2.710706426991699611205),
    (2, 0.3): (0.6739744245400449552357, 1.192765010449827153659),
    (2, 0.7): (1.082728848854050751484, 0.945197017917280487916),
    (2, 0.95): (1.329216575665394084122, 1.109754634288599490401),
    (2, 0.999): (1.389574530045615262708, 1.609918236080527673891),
    (3, 1e-6): (0.01514008024611570289305, 5046.774772235182270401),
    (3, 0.05): (0.5641481619618242383351, 3.850253052207400749857),
    (3, 0.3): (1.057028664058420812521, 1.291497422914463156593),
    (3, 0.7): (1.46850887346749340669, 0.8905867354835233884367),
    (3, 0.95): (1.692008556810200121716, 0.9625605205088324568522),
    (3, 0.999): (1.743387384236449810735, 1.32331257983692515329),
}


class TestRadiusMaps:
    def test_round_trip(self):
        a = np.linspace(0.01, 0.99, 50)
        for k in (1, 2, 3, 4):
            R = cyl.radius_of_measure(k, a)
            np.testing.assert_allclose(cyl.measure_of_radius(k, R), a,
                                       rtol=0, atol=1e-12)

    def test_k1_is_halfline_quantile(self):
        a = np.linspace(0.01, 0.99, 99)
        np.testing.assert_allclose(cyl.radius_of_measure(1, a), sf.phi_inv(a),
                                   rtol=0, atol=1e-10)

    def test_profiles_accurate_relative_to_one_minus_a(self):
        for (k, j), (R, s, phi) in NEAR_ONE_PROFILES.items():
            a = 1.0 - 10.0 ** -j
            assert cyl.radius_of_measure(k, a) == pytest.approx(R, rel=1e-12), (k, j)
            assert cyl.perimeter_s(k, a) == pytest.approx(s, rel=1e-12), (k, j)
            assert cyl.phi_k(k, a) == pytest.approx(phi, rel=1e-12), (k, j)

    def test_measure_matches_geometry(self):
        for k in (1, 2, 3):
            for R in (0.4, 1.0, 2.0):
                assert cyl.measure_of_radius(k, R) == pytest.approx(
                    oracles.ball_measure(R, k), abs=1e-12)

    @pytest.mark.parametrize("k", [0, 1.5])
    def test_cylinder_index_is_a_whole_number_from_1(self, k):
        with pytest.raises(ValueError, match="integer >= 1"):
            cyl.radius_of_measure(k, 0.5)


class TestPerimeterAndPhi:
    def test_perimeter_formula(self):
        # s_k(a) = g_{k-1}(R_k(a)) / c_{k-1}
        for k in (1, 2, 3, 4):
            for a in (0.1, 0.5, 0.9):
                R = cyl.radius_of_measure(k, a)
                expected = sf.g(k - 1, R) / sf.j_total(k - 1)
                assert cyl.perimeter_s(k, a) == pytest.approx(expected, rel=1e-13)

    def test_phi_is_log_derivative_of_inverse_perimeter(self):
        for k in (1, 2, 3, 4):
            for a in (0.15, 0.4, 0.6, 0.85):
                fd = oracles.fd_slope(lambda x: np.log(1.0 / cyl.perimeter_s(k, x)), a)
                assert cyl.phi_k(k, a) == pytest.approx(fd, rel=5e-7, abs=5e-9)

    def test_radius_slope_is_inverse_perimeter(self):
        for k in (1, 2, 3):
            for a in (0.2, 0.5, 0.8):
                fd = oracles.fd_slope(lambda x: cyl.radius_of_measure(k, x), a)
                assert 1.0 / cyl.perimeter_s(k, a) == pytest.approx(fd, rel=1e-7)

    def test_ps_identity(self):
        rng = np.random.default_rng(11)
        a = rng.uniform(0.01, 0.99, 200)
        for k in (1, 2, 3, 4, 5):
            np.testing.assert_allclose(cyl.ps_cylinder(k, a),
                                       1.0 + a * cyl.phi_k(k, a),
                                       rtol=0, atol=1e-12)

    def test_ps_equals_one_at_critical_radius(self):
        # phi_k vanishes exactly where R^2 = k - 1
        for k in (2, 3, 4, 5):
            a_star = float(cyl.measure_of_radius(k, np.sqrt(k - 1.0)))
            assert cyl.ps_cylinder(k, a_star) == pytest.approx(1.0, abs=1e-11)

    def test_k1_ps_always_above_one(self):
        a = np.linspace(0.01, 0.99, 99)
        assert np.all(cyl.ps_cylinder(1, a) > 1.0)


PROFILES = {
    "radius_of_measure": cyl.radius_of_measure,
    "perimeter_s": cyl.perimeter_s,
    "phi_k": cyl.phi_k,
    "ps_cylinder": cyl.ps_cylinder,
    "_phi_and_slope": cyl._phi_and_slope,
    "_s_and_slope": cyl._s_and_slope,
}


class TestScalarProfiles:
    """A float measure stays a Python float through every profile, with
    the array path's arithmetic, so scalar and one-element array agree."""

    # 0.561 with k = 1 is a point where R**2 (libm pow) and R * R differ
    GRID = np.linspace(0.001, 0.999, 999)

    @pytest.mark.parametrize("name", list(PROFILES))
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_scalar_equals_one_element_array(self, name, k):
        f = PROFILES[name]
        for a in [*self.GRID, 1e-300, 1e-12, 1 - 1e-12, 1 - 2.0**-53]:
            a = float(a)
            with np.errstate(over="ignore"):  # phi_k' overflows near a = 0
                got, want = f(k, a), f(k, np.array([a]))
            if name.endswith("_slope"):
                assert all(type(v) is float for v in got)
                assert got == tuple(float(w[0]) for w in want), a
            else:
                assert type(got) is float
                assert got == want[0], a

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_slopes_carry_the_profile_values(self, k):
        for a in self.GRID[::7]:
            assert cyl._phi_and_slope(k, a)[0] == cyl.phi_k(k, a)
            assert cyl._s_and_slope(k, a)[0] == cyl.perimeter_s(k, a)

    @pytest.mark.parametrize("name", ["radius_of_measure", "perimeter_s", "phi_k",
                                      "ps_cylinder"])
    def test_zero_dim_array_gives_the_float(self, name):
        f = PROFILES[name]
        for a in (0.2, 0.7):
            got = f(2, np.array(a))
            assert type(got) is float and got == f(2, a)
            assert f(2, np.float64(a)) == f(2, a)

    @pytest.mark.parametrize("name", list(PROFILES))
    @pytest.mark.parametrize("a", [0.0, 1.0, -0.5, 1.5, float("nan")])
    def test_scalar_domain_errors_are_the_array_ones(self, name, a):
        f = PROFILES[name]
        for arg in (a, np.array([a]), np.array([0.5, a])):
            with pytest.raises(sf.DomainError):
                f(2, arg)

    @pytest.mark.parametrize("name", ["radius_of_measure", "phi_k", "ps_cylinder"])
    def test_nan_raises(self, name):
        # NaN passed `a <= 0 or a >= 1` and came back as nan
        for arg in (float("nan"), np.array(float("nan")), np.full(20, np.nan)):
            with pytest.raises(sf.DomainError):
                PROFILES[name](1, arg)

    @pytest.mark.parametrize("name", ["conjecture_F", "weak_F", "bad_func"])
    def test_transforms_refuse_nan(self, name):
        tr = vf.measure_transform(name, 2)
        for arg in (float("nan"), np.array([0.5, np.nan])):
            for f in (tr, tr.slope, tr.value_and_slope):
                with pytest.raises(sf.DomainError):
                    f(arg)

    def test_partition_grid_refuses_nan(self):
        with pytest.raises(sf.DomainError):
            cyl.partition(2, [0.2, float("nan"), 0.8])


class TestPartition:
    def test_crossings_match_brentq(self):
        table = cyl.partition(2)
        assert len(table.crossings_phi) == 1
        assert len(table.crossings_s) == 1

        a_phi = brentq(lambda a: cyl.phi_k(1, a) - cyl.phi_k(2, a), 0.9, 0.995,
                       xtol=1e-13)
        a_s = brentq(lambda a: cyl.perimeter_s(1, a) - cyl.perimeter_s(2, a),
                     0.5, 0.9, xtol=1e-13)
        assert table.crossings_phi[0][0] == pytest.approx(a_phi, abs=1e-9)
        assert table.crossings_s[0][0] == pytest.approx(a_s, abs=1e-9)
        # against the frozen constants as well
        assert a_phi == pytest.approx(PHI_CROSS_N2, abs=1e-9)
        assert a_s == pytest.approx(S_CROSS_N2, abs=1e-9)

    def test_newton_cross_stays_in_bracket_when_newton_overshoots(self):
        # from the secant start (about 0.48) the Newton step of the arctan
        # lands far left of 0, so the solver must bisect instead
        def f(t):
            u = 20.0 * (t - 0.3)
            return np.arctan(u), 20.0 / (1.0 + u * u)

        calls = []

        def counted(t):
            calls.append(t)
            return f(t)

        root = cyl._newton_cross(counted, 0.0, 1.0, np.arctan(-6.0), np.arctan(14.0))
        newton = [t - v / d for t in calls for v, d in [f(t)]]
        assert any(not 0.0 <= x <= 1.0 for x in newton)
        assert all(0.0 < t < 1.0 for t in calls)
        assert abs(root - 0.3) <= 1e-15
        assert len(calls) <= 10

    def test_crossings_solved_on_first_access(self, monkeypatch):
        calls = counting(monkeypatch, cyl, "_newton_cross")
        table = cyl.partition(3, np.linspace(0.005, 0.995, 199))
        assert calls == []
        assert len(table.crossings_phi) == 1 and len(calls) == 1
        assert len(table.crossings_s) == 2 and len(calls) == 3
        assert table.crossings_phi is table.crossings_phi
        assert len(calls) == 3

    def test_mismatch_window_exists(self):
        table = cyl.partition(2)
        assert table.mismatch.any()
        inside = (table.a > S_CROSS_N2) & (table.a < PHI_CROSS_N2)
        np.testing.assert_array_equal(table.mismatch, inside)

    def test_argmin_orientation(self):
        # in the mismatch window the perimeter favors the half-line while the
        # log-derivative still favors the ball
        table = cyl.partition(2)
        mask = table.mismatch
        assert np.all(table.s_argmin[mask] == 1)
        assert np.all(table.phi_argmin[mask] == 2)

    def test_low_measure_prefers_full_ball(self):
        for n in (2, 3):
            table = cyl.partition(n)
            assert table.phi_argmin[0] == n
            assert table.s_argmin[0] == n

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_phi_argmin_pieces_hold_off_the_grid(self, n):
        # conjecture_F takes its pieces from the grid in [0.005, 0.995]; the
        # argmin of phi_k must not switch again out to a = 1e-150 and 1 - 1e-15
        tr = cyl.conjecture_transform(n)
        assert tr.ks == ((n, 1) if n > 1 else (1,))
        a = np.concatenate([np.logspace(-150.0, np.log10(0.5), 700),
                            1.0 - np.logspace(np.log10(0.5), -15.0, 700)])
        phi = np.vstack([cyl.phi_k(k, a) for k in range(1, n + 1)])
        active = np.asarray(tr.ks)[np.searchsorted(tr.breaks, a, side="right")]
        np.testing.assert_array_equal(np.argmin(phi, axis=0) + 1, active)


class TestTransforms:
    def test_conjecture_slope_vs_fd(self):
        tr = cyl.conjecture_transform(2)
        for a in (0.2, 0.5, 0.8, 0.99):
            fd = oracles.fd_slope(tr, a, h=1e-5)
            assert tr.slope(a) == pytest.approx(fd, rel=2e-6)

    def test_weak_slope_vs_fd(self):
        tr = cyl.weak_transform(2)
        for a in (0.2, 0.5, 0.8):
            fd = oracles.fd_slope(tr, a, h=1e-5)
            assert tr.slope(a) == pytest.approx(fd, rel=2e-6)

    def test_weak_slope_accurate_near_one(self):
        for (n, j), slope in WEAK_SLOPE_NEAR_ONE.items():
            tr = cyl.weak_transform(n)
            assert tr.slope(1.0 - 10.0 ** -j) == pytest.approx(slope, rel=1e-13), (n, j)

    def test_conjecture_n1_affine_in_quantile(self):
        # with one factor the construction reduces to the half-line quantile
        # up to an affine map, so slope ratios must be constant
        a = np.array([0.2, 0.4, 0.6, 0.8])
        tr = cyl.conjecture_transform(1)
        ratio = tr.slope(a) / (np.sqrt(np.pi / 2) * np.exp(sf.phi_inv(a) ** 2 / 2))
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-9)

    def test_transform_increasing(self):
        a = np.linspace(0.05, 0.99, 30)
        for tr in (cyl.conjecture_transform(2), cyl.weak_transform(3)):
            v = np.array([tr(x) for x in a])
            assert np.all(np.diff(v) > 0)

    def test_conjecture_closed_form_against_mpmath(self):
        cases = [((n, 1.0 - 10.0 ** -j), ref)
                 for (n, j), ref in CONJECTURE_NEAR_ONE.items()]
        cases += list(CONJECTURE_MIDDLE.items())
        for (n, a), (F, slope) in cases:
            tr = cyl.conjecture_transform(n)
            assert tr(a) == pytest.approx(F, rel=1e-12), (n, a)
            assert tr.slope(a) == pytest.approx(slope, rel=1e-12), (n, a)

    def test_weak_against_nested_mpmath(self):
        for (n, a), (F, slope) in WEAK_F_REFERENCE.items():
            tr = cyl.weak_transform(n)
            assert tr(a) == pytest.approx(F, rel=1e-10), (n, a)
            assert tr.slope(a) == pytest.approx(slope, rel=1e-10), (n, a)

    def test_weak_keeps_its_power_law_near_zero(self):
        # exp(W) ~ t^{-(n-1)/n}, so F / a^{1/n} and F' a^{(n-1)/n} settle to
        # constants as a -> 0, down to the smallest measures.  The slope
        # carries the power law in R_n(a) / a, so only the rounding of R_n
        # and of the powers of a separates the five values.
        a = np.array([1e-300, 1e-200, 1e-100, 1e-40, 1e-24])
        for n in (2, 3):
            tr = cyl.weak_transform(n)
            value = tr(a) / a ** (1.0 / n)
            slope = tr.slope(a) * a ** ((n - 1.0) / n)
            np.testing.assert_allclose(value, value[0], rtol=1e-12)
            np.testing.assert_allclose(slope, slope[0], rtol=1e-12)
            assert value[0] == pytest.approx(n * slope[0], rel=1e-11)

    @pytest.mark.parametrize("n", [2, 3])
    def test_values_independent_of_call_history(self, n):
        # the same point on a fresh transform and on one that has already
        # evaluated 12 others must give bit-identical values, in the middle
        # and on the tail panels, which the first tail point builds
        fresh = cyl.ExpIntegralTransform(n)
        used = cyl.ExpIntegralTransform(n)
        for a in np.linspace(0.03, 0.97, 12):
            used(a), used.slope(a)
        for a in (0.37, 1.0 - 1e-6):
            assert (used(a), used.slope(a)) == (fresh(a), fresh.slope(a))

    def test_log_slope_derivative_matches_min_phi(self):
        # the defining property: (log F')' = min_k phi_k
        tr = cyl.conjecture_transform(2)
        for a in (0.3, 0.6, 0.99):
            fd = oracles.fd_slope(lambda x: np.log(tr.slope(x)), a, h=1e-5)
            expected = min(cyl.phi_k(1, a), cyl.phi_k(2, a))
            assert fd == pytest.approx(expected, rel=5e-5, abs=5e-7)


class TestColdBuilds:
    """A cold build inverts R_k n times on the grid and once per side for
    each Newton step and each glued piece; each transform solves only its
    own argmin family's crossings.  weak_F tabulates n^2 I once for every n
    and builds its tail panels on the first read above 1 - 1e-3."""

    @pytest.fixture
    def cold(self, monkeypatch):
        caches = (cyl.conjecture_transform, cyl.bad_transform, cyl._default_partition,
                  cyl.weak_transform, cyl._unit_inner, cyl._unit_inner_tail)
        for f in caches:
            f.cache_clear()
        yield counting(monkeypatch, sf, "j_inverse_regularized")
        for f in caches:
            f.cache_clear()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_conjecture_transform_inversions(self, n, cold):
        cyl.conjecture_transform(n)
        assert len(cold) <= 40

    def test_bad_transform_inversions(self, cold):
        cyl.bad_transform(4)
        assert len(cold) <= 64

    def test_bad_transform_built_once(self, cold):
        assert cyl.bad_transform(3) is cyl.bad_transform(3)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_both_transforms_share_one_grid_table(self, n, cold):
        # each k's 199-point grid is inverted once for the two builds
        cyl.conjecture_transform(n)
        cyl.bad_transform(n)
        grids = sorted(k for k, a in cold if np.ndim(a) == 1 and len(a) == 199)
        assert grids == list(range(n))
        assert cyl.partition(n) is cyl.partition(n)
        assert not cyl.partition(n).phi_values.flags.writeable

    def test_weak_builds_one_inner_table_and_tails_on_first_read(self, cold,
                                                                  monkeypatch):
        builds = counting(monkeypatch, pn, "Cumulative")
        below_tail = np.linspace(0.01, 1.0 - 1e-3, 7)
        for n in (2, 3):
            tr = cyl.weak_transform(n)
            tr(below_tail), tr.slope(below_tail)
        # n^2 I is tabulated once for both n, plus one F table per n
        assert len(builds) == 3
        tr.slope(1.0 - 1e-6)
        assert len(builds) == 4  # the tail of n^2 I, shared by every n
        tr(1.0 - 1e-6)
        assert len(builds) == 5  # F's tail for n = 3
        cyl.weak_transform(2)(1.0 - 1e-6), tr(1.0 - 1e-9)
        assert len(builds) == 6  # F's tail for n = 2; n = 3's is kept

    def test_inner_table_is_built_in_one_round(self, cold, monkeypatch):
        calls = counting(monkeypatch, sf, "phi_inv")
        G = cyl._unit_inner()
        assert len(calls) == 1
        adaptive = pn.Cumulative(lambda s: sf.phi_inv(s) ** 2 / (cyl._TWO_E2 * s),
                                 [0.0, 0.5, 1.0 - 1e-3], 0.5, 0.0)
        assert len(calls) > 2  # bisection took several rounds
        for name in ("edges", "coef", "base"):
            assert np.array_equal(getattr(G, name), getattr(adaptive, name)), name
        assert (G.last, G.err) == (adaptive.last, adaptive.err)

    def test_inner_edges_halve_toward_the_singularity(self):
        edges = cyl._inner_edges()
        assert edges[:2] == [0.0, 0.5] and edges[-1] == 1.0 - 1e-3
        widths = np.diff(edges[1:])
        np.testing.assert_allclose(widths, 0.499 / 2.0 ** np.array([1, 2, 3, 4, 5, 6, 7, 7]),
                                   rtol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_counterexample_family_solves_no_crossing(self, n, monkeypatch):
        calls = counting(monkeypatch, cyl, "_newton_cross")
        assert len(vf.counterexample_family(n, "bad_func")) == 2
        assert calls == []


class TestBadTransform:
    def test_continuity_at_breaks(self):
        tr = cyl.bad_transform(2)
        assert len(tr.breaks) == 1
        b = tr.breaks[0]
        assert tr(b - 1e-9) == pytest.approx(tr(b + 1e-9), abs=1e-7)

    def test_slope_is_inverse_perimeter_of_s_argmin(self):
        tr = cyl.bad_transform(2)
        # below the perimeter crossing the ball wins, above it the half-line
        assert tr.slope(0.3) == pytest.approx(1.0 / cyl.perimeter_s(2, 0.3), rel=1e-12)
        assert tr.slope(0.9) == pytest.approx(1.0 / cyl.perimeter_s(1, 0.9), rel=1e-12)

    def test_anchored_at_first_piece(self):
        tr = cyl.bad_transform(2)
        assert tr(0.3) == pytest.approx(cyl.radius_of_measure(2, 0.3), rel=1e-12)


# crossings of the phi_1 = phi_n and s_{k+1} = s_k argmins, keyed by n and
# by (k + 1, k).  Frozen from mpmath at 40 digits, rounded to 20: R_k(a) from
# the regularized lower incomplete gamma equation P(k/2, R^2/2) = a, s_k and
# phi_k as in NEAR_ONE_PROFILES, each crossing by findroot on the difference;
# no gausscvx code.  s_k does not depend on n, so one value serves every n.
PHI_CROSSINGS = {2: 0.98469418988877909965, 3: 0.9879312375788550279,
                 4: 0.99018222365939577464}
S_CROSSINGS = {(2, 1): 0.70626104607680352344, (3, 2): 0.64621372667198937766,
               (4, 3): 0.61763484669715094288}


@pytest.mark.parametrize("n", [2, 3, 4], ids=lambda n: f"n={n}")
def test_crossings_match_mpmath(n):
    table = cyl.partition(n)
    [(a_phi, k_left, k_right)] = table.crossings_phi
    assert (k_left, k_right) == (n, 1)
    assert abs(a_phi - PHI_CROSSINGS[n]) <= 1e-14
    assert [c[1:] for c in table.crossings_s] == [(k, k - 1) for k in range(n, 1, -1)]
    for a_s, k_left, k_right in table.crossings_s:
        assert abs(a_s - S_CROSSINGS[k_left, k_right]) <= 1e-14, (k_left, k_right)


@settings(max_examples=50, deadline=None)
@given(k=st.integers(min_value=1, max_value=4),
       a=st.floats(min_value=0.005, max_value=0.995))
def test_radius_monotone(k, a):
    R = float(cyl.radius_of_measure(k, a))
    assert R > 0
    assert float(cyl.radius_of_measure(k, min(a + 1e-3, 0.9995))) > R


@settings(max_examples=50, deadline=None)
@given(a=st.floats(min_value=0.01, max_value=0.98))
def test_phi_ordering_below_crossing(a):
    # the ball's log-derivative stays below the half-line's up to the
    # crossing near 0.9847
    assert cyl.phi_k(2, a) < cyl.phi_k(1, a)
