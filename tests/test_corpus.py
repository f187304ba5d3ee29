import json
import random

import pytest

from mubar.corpus import (
    borromean_braid,
    corpus_files,
    corpus_install,
    hopf_braid,
    milnor_l6_system,
)
from mubar.links import artin_longitudes, parse_braid, reorder
from mubar.milnor import all_vanish_up_to, mu_bar
from mubar.words import parse_word

from link_generators import random_pure_braid, random_realized_system


class TestBundledCorpus:
    def test_install_idempotent(self, tmp_path):
        first = corpus_install(tmp_path)
        before = {p: (tmp_path / p).read_bytes() for p in sorted(x.split("/")[-1] for x in first)}
        second = corpus_install(tmp_path)
        after = {p: (tmp_path / p).read_bytes() for p in sorted(x.split("/")[-1] for x in second)}
        assert first == second
        assert before == after

    def test_file_set(self):
        files = corpus_files()
        assert set(files) == {
            "unlink.json",
            "hopf.json",
            "borromean.json",
            "hopf.braid",
            "borromean.braid",
            "l6.json",
            "star.json",
        }

    def test_star_values(self):
        assert json.loads(corpus_files()["star.json"]) == {
            "lk(yyxy,(yxy,xy))": 1
        }

    def test_braid_files_parse(self):
        files = corpus_files()
        assert parse_braid(files["hopf.braid"]) == hopf_braid()
        assert parse_braid(files["borromean.braid"]) == borromean_braid()

    def test_l6_file_matches_builder(self):
        data = json.loads(corpus_files()["l6.json"])
        system = milnor_l6_system()
        assert data["m"] == 2 and data["depth"] == 7
        assert tuple(parse_word(w) for w in data["longitudes"]) == system.longitudes
        assert "derivation" in data["metadata"]


class TestL6Gate:
    def test_low_weights_vanish(self):
        assert all_vanish_up_to(milnor_l6_system(), 5)

    def test_headline_values(self):
        system = milnor_l6_system()
        assert mu_bar(system, (1, 1, 2, 2, 2, 2)).residue == -1
        assert mu_bar(system, (2, 2, 1, 1, 1, 1)).residue == 0


class TestRandomRealized:
    def test_deterministic_per_seed(self):
        a = random_realized_system(random.Random(99), depth=5)
        b = random_realized_system(random.Random(99), depth=5)
        assert a == b

    def test_linking_target(self):
        rng = random.Random(101)
        for lk in range(-3, 4):
            system = random_realized_system(rng, depth=5, linking=lk)
            assert system.linking(1, 2) == lk

    def test_two_components(self):
        rng = random.Random(103)
        for _ in range(10):
            system = random_realized_system(rng, depth=5)
            assert system.m == 2
            assert system.depth == 5

    def test_weight3_residues_follow_linking(self):
        # mu-bar(112)-type residues of a link are determined by lk via
        # the binomial identity mu(112) = C(lk, 2); this separates the
        # honest braid-closure generator from naive word surgeries
        rng = random.Random(107)
        for _ in range(10):
            lk = rng.randint(-3, 3)
            system = random_realized_system(rng, depth=5, linking=lk)
            for entries in ((1, 1, 2), (1, 2, 1), (2, 1, 1)):
                value = mu_bar(system, entries)
                if lk == 0:
                    assert value.residue == 0
                else:
                    assert value.delta == abs(lk)
                    assert value.residue == (lk * (lk - 1) // 2) % abs(lk)


class TestSublink:
    def test_strand_deletion_commutes_with_closure(self):
        rng = random.Random(109)
        for _ in range(10):
            braid = random_pure_braid(rng, 3, rng.randint(0, 8))
            full = artin_longitudes(braid, 5)
            kept = reorder(full, (1, 2))
            deleted = type(braid)(
                2, tuple(l for l in braid.letters if 3 not in l[:2])
            )
            direct = artin_longitudes(deleted, 5)
            assert kept == direct

    def test_validation(self):
        system = artin_longitudes(borromean_braid(), 4)
        with pytest.raises(ValueError):
            reorder(system, (1, 1))
        with pytest.raises(ValueError):
            reorder(system, (0, 2))

    def test_borromean_sublinks_trivial(self):
        # deleting any Borromean component unlinks the other two
        system = artin_longitudes(borromean_braid(), 4)
        for pair in ((1, 2), (1, 3), (2, 3)):
            sub = reorder(system, pair)
            assert all_vanish_up_to(sub, 3)
