"""Hypothesis strategies for strings over the body grammar's alphabet.

Numbers enter only as whole tokens (``=2``, ``+0.5``), so no run of
digits can build a huge dimension: every string stays cheap to refuse or
to measure.  Catalog bodies with their own parameters and mostly sound
values are drawn often, so that many strings are valid bodies.
"""

from hypothesis import strategies as st

NAMES = ("ball", "strip", "cylinder", "box", "lp_ball", "ellipsoid", "pyramid")
KEYS = ("R", "w", "k", "a", "r", "p", "c", "n", "v", "lambda", "foo")
NUMBERS = ("0", "1", "2", "0.5", "1.5", "0.3", "-1", "inf", "nan", "abc", "")
PARAMS = {"ball": ("R",), "strip": ("w",), "cylinder": ("k", "R"), "box": ("a",),
          "lp_ball": ("r", "p"), "ellipsoid": ("c",)}
EXTRAS = ("", "", ",n=1", ",n=2", ",n=3", ",foo=1", ",R=1", ",")

good = st.sampled_from(("0.3", "0.5", "1", "1.5", "2"))
number = st.one_of(good, good, st.sampled_from(NUMBERS))
vector = st.lists(number, min_size=1, max_size=3).map("+".join)
items = st.lists(st.builds("{}={}".format, st.sampled_from(KEYS), vector), max_size=3)


def _catalog_body(name: str, keys: tuple):
    vals = st.tuples(*(vector if k in ("a", "c") else number for k in keys))
    return st.builds(
        lambda vs, extra: f"{name}:" + ",".join(map("{}={}".format, keys, vs)) + extra,
        vals, st.sampled_from(EXTRAS))


catalog = st.one_of(*(_catalog_body(name, keys) for name, keys in PARAMS.items()))
simple = st.one_of(catalog, catalog,
                   st.builds("{}:{}".format, st.sampled_from(NAMES), items.map(",".join)))
compound = st.one_of(
    st.builds("interp:lambda={};{}|{}".format, vector, simple, simple),
    st.builds("translate:v={};{}".format, vector, simple),
    st.builds("translate:{};{}".format, items.map(",".join), simple),
)
# token soup: every piece of the grammar, in any order
TOKENS = (NAMES + KEYS + tuple("=" + x for x in NUMBERS) + tuple("+" + x for x in NUMBERS)
          + ("interp:", "translate:", ":", ",", ";", "|", " "))
soup = st.lists(st.sampled_from(TOKENS), max_size=12).map("".join)

body_strings = st.one_of(simple, compound, soup)
