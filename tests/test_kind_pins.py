"""Exact exception class and message of every graph-kind check at the
public entry points: colored graph against digraph and a color-count
mismatch, in both argument orders, plus non-graphs and bad channels."""

import pytest

import regracut as rg
from regracut.errors import BadState, ColorOutOfRange, KindMismatch, RegracutError

from helpers import mono_digraph, mono_rgraph

C2 = mono_rgraph(3, 2, 1)
C3 = mono_rgraph(3, 3, 1)
D = mono_digraph(3, "fwd")
FAM = {"c2": rg.ForbiddenFamily([C2]), "c3": rg.ForbiddenFamily([C3]), "d": rg.ForbiddenFamily([D])}
TYPE = {
    "c2": rg.rtype(2, [{1}], {}),
    "c3": rg.rtype(3, [{1}], {}),
    "d": rg.dirtype("P0", [{"bi"}], {}),
}
PARTS = [[0], [1], [2]]

SAME = "cannot compare a colored graph with a digraph"
FAMILY_KIND = "family kind does not match the graph"
FAMILY_R = "family color count does not match the graph"
TEMPLATE_KIND = "template kind does not match the graph"
TEMPLATE_R = "template color count does not match the graph"
PATTERN_KIND = "graph and pattern must be the same kind"
SHARE_R = "family members must all share the same color count"
MIXES = "family mixes digraphs with colored graphs"
WANT_R = "family does not match the requested color count"
WANT_PAL = "family does not match the requested palette"


def construct(G, family):
    return rg.construct_type_from_partition(G, PARTS, 0.1, lambda k: 0.5, family)


CASES = [
    # (id, call, exception class, exact message)
    ("edit_distance c-d", lambda: rg.edit_distance(C2, D), KindMismatch, SAME),
    ("edit_distance d-c", lambda: rg.edit_distance(D, C2), KindMismatch, SAME),
    ("edit_distance r2-r3", lambda: rg.edit_distance(C2, C3), KindMismatch, "color counts differ: 2 vs 3"),
    ("edit_distance r3-r2", lambda: rg.edit_distance(C3, C2), KindMismatch, "color counts differ: 3 vs 2"),
    ("find_induced_copy c-d", lambda: rg.find_induced_copy(C2, D), KindMismatch, SAME),
    ("find_induced_copy d-c", lambda: rg.find_induced_copy(D, C2), KindMismatch, SAME),
    ("find_induced_copy r2-r3", lambda: rg.find_induced_copy(C2, C3), KindMismatch, "color counts differ: 2 vs 3"),
    ("find_induced_copy r3-r2", lambda: rg.find_induced_copy(C3, C2), KindMismatch, "color counts differ: 3 vs 2"),
    ("distance_to_property c-d", lambda: rg.distance_to_property(C2, FAM["d"]), KindMismatch, FAMILY_KIND),
    ("distance_to_property d-c", lambda: rg.distance_to_property(D, FAM["c2"]), KindMismatch, FAMILY_KIND),
    ("distance_to_property r2-r3", lambda: rg.distance_to_property(C2, FAM["c3"]), KindMismatch, FAMILY_R),
    ("distance_to_property r3-r2", lambda: rg.distance_to_property(C3, FAM["c2"]), KindMismatch, FAMILY_R),
    ("fit_to_type c-d", lambda: rg.fit_to_type(C2, TYPE["d"]), KindMismatch, TEMPLATE_KIND),
    ("fit_to_type d-c", lambda: rg.fit_to_type(D, TYPE["c2"]), KindMismatch, TEMPLATE_KIND),
    ("fit_to_type r2-r3", lambda: rg.fit_to_type(C2, TYPE["c3"]), KindMismatch, TEMPLATE_R),
    ("fit_to_type r3-r2", lambda: rg.fit_to_type(C3, TYPE["c2"]), KindMismatch, TEMPLATE_R),
    ("construct c-d", lambda: construct(C2, FAM["d"]), KindMismatch, FAMILY_KIND),
    ("construct d-c", lambda: construct(D, FAM["c2"]), KindMismatch, FAMILY_KIND),
    ("construct r2-r3", lambda: construct(C2, FAM["c3"]), KindMismatch, FAMILY_R),
    ("construct r3-r2", lambda: construct(C3, FAM["c2"]), KindMismatch, FAMILY_R),
    ("count_spanning_copies c-d", lambda: rg.count_spanning_copies(C2, D, PARTS), KindMismatch, PATTERN_KIND),
    ("count_spanning_copies d-c", lambda: rg.count_spanning_copies(D, C2, PARTS), KindMismatch, PATTERN_KIND),
    ("count_spanning_copies r2-r3", lambda: rg.count_spanning_copies(C2, C3, PARTS), KindMismatch,
     "graph has r=2 but pattern has r=3"),
    ("count_spanning_copies r3-r2", lambda: rg.count_spanning_copies(C3, C2, PARTS), KindMismatch,
     "graph has r=3 but pattern has r=2"),
    ("check_embedding_lemma c-d", lambda: rg.check_embedding_lemma(C2, D, PARTS, 0.5), KindMismatch, PATTERN_KIND),
    ("check_embedding_lemma d-c", lambda: rg.check_embedding_lemma(D, C2, PARTS, 0.5), KindMismatch, PATTERN_KIND),
    ("check_embedding_lemma r2-r3", lambda: rg.check_embedding_lemma(C2, C3, PARTS, 0.5), KindMismatch,
     "graph has r=2 but pattern has r=3"),
    ("check_embedding_lemma r3-r2", lambda: rg.check_embedding_lemma(C3, C2, PARTS, 0.5), KindMismatch,
     "graph has r=3 but pattern has r=2"),
    ("embeds c-d", lambda: rg.embeds(C2, TYPE["d"]), KindMismatch, "colored graph against a digraph template"),
    ("embeds d-c", lambda: rg.embeds(D, TYPE["c2"]), KindMismatch, "digraph against a colored-graph template"),
    ("embeds r2-r3", lambda: rg.embeds(C2, TYPE["c3"]), KindMismatch, "pattern has r=2 but template has r=3"),
    ("embeds r3-r2", lambda: rg.embeds(C3, TYPE["c2"]), KindMismatch, "pattern has r=3 but template has r=2"),
    ("embeds non-graph", lambda: rg.embeds("H", TYPE["c2"]), KindMismatch, "unsupported pattern str"),
    ("ForbiddenFamily c-d", lambda: rg.ForbiddenFamily([C2, D]), KindMismatch, SHARE_R),
    ("ForbiddenFamily d-c", lambda: rg.ForbiddenFamily([D, C2]), KindMismatch, MIXES),
    ("ForbiddenFamily r2-r3", lambda: rg.ForbiddenFamily([C2, C3]), KindMismatch, SHARE_R),
    ("ForbiddenFamily r3-r2", lambda: rg.ForbiddenFamily([C3, C2]), KindMismatch, SHARE_R),
    ("ForbiddenFamily c-non-graph", lambda: rg.ForbiddenFamily([C2, "H"]), KindMismatch, SHARE_R),
    ("ForbiddenFamily d-non-graph", lambda: rg.ForbiddenFamily([D, "H"]), KindMismatch, MIXES),
    ("ForbiddenFamily non-graph", lambda: rg.ForbiddenFamily(["H", C2]), KindMismatch,
     "unsupported family member str"),
    ("ForbiddenFamily c-template", lambda: rg.ForbiddenFamily([C2, TYPE["c2"]]), KindMismatch, SHARE_R),
    ("ForbiddenFamily c-family", lambda: rg.ForbiddenFamily([C2, FAM["c2"]]), KindMismatch, SHARE_R),
    ("edit_distance c-template", lambda: rg.edit_distance(C2, TYPE["c2"]), KindMismatch, SAME),
    ("count_spanning_copies c-template", lambda: rg.count_spanning_copies(C2, TYPE["c2"], PARTS),
     KindMismatch, PATTERN_KIND),
    ("enumerate_types c-d", lambda: rg.enumerate_types(rg.P0, 1, FAM["c2"]), KindMismatch, WANT_PAL),
    ("enumerate_types c-d name", lambda: rg.enumerate_types("P1", 1, FAM["c2"]), KindMismatch, WANT_PAL),
    ("enumerate_types d-c", lambda: rg.enumerate_types(2, 1, FAM["d"]), KindMismatch, WANT_R),
    ("enumerate_types r2-r3", lambda: rg.enumerate_types(2, 1, FAM["c3"]), KindMismatch, WANT_R),
    ("enumerate_types r3-r2", lambda: rg.enumerate_types(3, 1, FAM["c2"]), KindMismatch, WANT_R),
    ("channel_labels non-graph", lambda: rg.channel_labels("G"), RegracutError, "not a graph: str"),
    ("dumps_graph non-graph", lambda: rg.dumps_graph("G"), RegracutError, "cannot serialize str"),
    ("bad_vertices color 3 of 2", lambda: rg.bad_vertices(C2, [0], [1], 3, 0.5, 0.1), ColorOutOfRange,
     "color 3 not in 1..2"),
    ("bad_vertices color 0", lambda: rg.bad_vertices(C2, [0], [1], 0, 0.5, 0.1), ColorOutOfRange,
     "color 0 not in 1..2"),
    ("bad_vertices state name", lambda: rg.bad_vertices(D, [0], [1], "up", 0.5, 0.1), BadState,
     "unknown state 'up'"),
    ("bad_vertices state as color", lambda: rg.bad_vertices(D, [0], [1], 1, 0.5, 0.1), BadState,
     "unknown state 1"),
]


@pytest.mark.parametrize("call, error, message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_kind_error_is_pinned(call, error, message):
    with pytest.raises(RegracutError) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
