import json
import subprocess
import sys

import pytest

import lcone.classify
from lcone.classify import run_classification
from lcone.cli import main


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "lcone.cli", *args],
                          capture_output=True, text=True, **kw)


@pytest.fixture
def a2_file(tmp_path):
    p = tmp_path / "a2.form"
    p.write_text("2 2 1 2\n")
    return str(p)


@pytest.fixture
def i2_file(tmp_path):
    p = tmp_path / "i2.form"
    p.write_text("2 1 0 1\n")
    return str(p)


@pytest.fixture
def indef_file(tmp_path):
    p = tmp_path / "bad.form"
    p.write_text("2 1 2 1\n")
    return str(p)


class TestDelaunayCmd:
    def test_a2(self, a2_file, capsys):
        assert main(["delaunay", a2_file]) == 0
        out = capsys.readouterr().out
        assert "cells: 6, classes: 2, triangulation: true" in out

    def test_identity(self, i2_file, capsys):
        assert main(["delaunay", i2_file]) == 0
        out = capsys.readouterr().out
        assert "cells: 4, classes: 1, triangulation: false" in out

    def test_not_pd_exit_2(self, indef_file):
        assert main(["delaunay", indef_file]) == 2

    def test_parse_error_exit_1(self, tmp_path):
        p = tmp_path / "short.form"
        p.write_text("2 1 0\n")
        r = run_cli(["delaunay", str(p)])
        assert r.returncode == 1

    def test_usage_error_exit_1(self):
        r = run_cli(["delaunay"])
        assert r.returncode == 1
        r = run_cli(["nonsense"])
        assert r.returncode == 1


class TestDvcellCmd:
    def test_identity3(self, tmp_path, capsys):
        p = tmp_path / "i3.form"
        p.write_text("3 1 0 1 0 0 1\n")
        assert main(["dvcell", str(p)]) == 0
        out = capsys.readouterr().out
        assert "facets: 6, vertices: 8, f: (8,12,6)" in out
        assert "incidence hash:" in out

    def test_fcc(self, tmp_path, capsys):
        p = tmp_path / "fcc.form"
        p.write_text("3 2 1 2 1 1 2\n")
        assert main(["dvcell", str(p)]) == 0
        out = capsys.readouterr().out
        assert "facets: 12, vertices: 14" in out

    def test_hexagon(self, a2_file, capsys):
        assert main(["dvcell", a2_file]) == 0
        out = capsys.readouterr().out
        assert "facets: 6, vertices: 6" in out

    def test_truncated_octahedron_one_face_lattice(self, tmp_path, capsys, monkeypatch):
        import lcone.polyhedral

        # One pass builds the face lattice and counts the subordination scheme.
        calls = []
        lattice = lcone.polyhedral._face_levels

        def counting(p):
            calls.append(p)
            return lattice(p)

        for module in (lcone.polyhedral, lcone.classify):
            monkeypatch.setattr(module, "_face_levels", counting)
        p = tmp_path / "p3.form"
        p.write_text("3 3 -1 3 -1 -1 3\n")
        assert main(["dvcell", str(p)]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out.splitlines() == [
            "facets: 14, vertices: 24, f: (24,36,14)",
            "subordination: 2=[4:6,6:8]",
            "incidence hash: 6c8c694770d76b4c31ac5f9393535cd944c6c4202ac3cd499b176c2bb98ad17e"]


    def test_unknown_digest_exit_1(self, a2_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dvcell", a2_file, "--digest", "nosuch"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "unsupported hash algorithm 'nosuch'" in err and "Traceback" not in err


def _negate_first_inequality(text):
    rec = json.loads(text)
    rec["ineqs"][0] = [-x for x in rec["ineqs"][0]]
    return json.dumps(rec) + "\n"


class TestClassifyCmd:
    def test_d2(self, tmp_path, capsys):
        out_dir = str(tmp_path / "db")
        assert main(["classify", "-d", "2", "-o", out_dir]) == 0
        out = capsys.readouterr().out
        assert "total: 2, primitive: 1, mass: 1/24, distinct: true" in out

    def test_verification_read_from_manifest(self, tmp_path, capsys, monkeypatch):
        calls = []
        check = lcone.classify.distinctness_check

        def counting(db):
            calls.append(db)
            return check(db)

        monkeypatch.setattr(lcone.classify, "distinctness_check", counting)
        assert main(["classify", "-d", "2", "-o", str(tmp_path / "db")]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out.splitlines()[:3] == [
            "total: 2, primitive: 1, mass: 1/24, distinct: true", "dim 3: 1", "dim 2: 1"]

    def test_d3_and_masscheck(self, tmp_path, capsys):
        out_dir = str(tmp_path / "db3")
        assert main(["classify", "-d", "3", "-o", out_dir]) == 0
        out = capsys.readouterr().out
        assert "total: 5, primitive: 1, mass: 0, distinct: true" in out
        assert main(["masscheck", out_dir]) == 0
        out = capsys.readouterr().out
        assert "total: 0" in out
        assert "flags: 1/8 = 1/8" in out

    def test_masscheck_incomplete_exit_3(self, tmp_path):
        assert main(["masscheck", str(tmp_path)]) == 3

    def test_env_default_outdir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("LCONE_OUT", str(tmp_path / "envdb"))
        monkeypatch.chdir(tmp_path)
        assert main(["classify", "-d", "1"]) == 0
        manifest = json.loads((tmp_path / "envdb" / "manifest.json").read_text())
        assert manifest["d"] == 1

    def test_seed_override(self, tmp_path, capsys):
        seed = tmp_path / "seed.form"
        seed.write_text("2 2 -1 2\n")
        out_dir = str(tmp_path / "dbs")
        assert main(["classify", "-d", "2", "-o", out_dir,
                     "--seed-form", str(seed)]) == 0
        out = capsys.readouterr().out
        assert "total: 2" in out

    def test_seed_of_other_dimension_exit_2(self, tmp_path, a2_file, capsys):
        out_dir = tmp_path / "db"
        assert main(["classify", "-d", "3", "-o", str(out_dir), "--seed-form", a2_file]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed form has dimension 2, not 3" in err
        assert not out_dir.exists()

    def test_indefinite_seed_exit_2_keeps_database(self, tmp_path, indef_file, capsys):
        out_dir = tmp_path / "db"
        assert main(["classify", "-d", "2", "-o", str(out_dir)]) == 0
        before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        capsys.readouterr()
        assert main(["classify", "-d", "2", "-o", str(out_dir), "--seed-form", indef_file]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed form is not positive definite" in err
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before

    def test_resume_incompatible_exit_3(self, tmp_path, capsys):
        out_dir = str(tmp_path / "db")
        assert main(["classify", "-d", "2", "-o", out_dir]) == 0
        capsys.readouterr()
        assert main(["classify", "-d", "3", "-o", out_dir, "--resume"]) == 3

    def test_resume_corrupt_checkpoint_exit_3(self, tmp_path, capsys):
        out_dir = tmp_path / "db"
        with pytest.raises(KeyboardInterrupt):
            run_classification(2, str(out_dir), abort_after=2)
        frontier = out_dir / "frontier.jsonl"
        lines = frontier.read_text().splitlines(keepends=True)
        assert len(lines) == 2
        frontier.write_text("{broken\n" + lines[1])
        assert main(["classify", "-d", "2", "-o", str(out_dir), "--resume"]) == 3
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("name, damage, where", [
        ("dim_3.jsonl", lambda text: text[:-10], "dim_3.jsonl: line 1 "),
        ("dim_3.jsonl", lambda text: json.dumps(
            {k: v for k, v in json.loads(text).items() if k != "stab_order"}) + "\n",
         "dim_3.jsonl: line 1 "),
        ("manifest.json", lambda text: text[:-10], "manifest.json is not a manifest: "),
        ("manifest.json", lambda text: "{}", "manifest.json is not a manifest: "),
        ("manifest.json", lambda text: "[1]", "manifest.json is not a manifest: "),
        ("dim_x.jsonl", lambda text: text, "dim_x.jsonl: "),
        ("dim_3.jsonl", _negate_first_inequality,
         "dim_3.jsonl: line 1 is not a class record: ray "),
        ("dim_2.jsonl", lambda text: json.dumps(
            {k: v for k, v in json.loads(text).items() if k != "eqs"}) + "\n",
         "dim_2.jsonl: line 1 is not a class record: equalities "),
    ], ids=["torn-record", "record-without-stab-order", "torn-manifest",
            "empty-manifest", "manifest-not-an-object", "stray-record-file",
            "negated-inequality", "record-without-eqs"])
    def test_masscheck_damaged_database_exit_3(self, tmp_path, capsys, name, damage, where):
        out_dir = tmp_path / "db"
        assert main(["classify", "-d", "2", "-o", str(out_dir)]) == 0
        path = out_dir / name
        path.write_text(damage(path.read_text() if path.exists() else ""))
        capsys.readouterr()
        assert main(["masscheck", str(out_dir)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and where in err

    def test_resume_torn_manifest_exit_3(self, tmp_path, capsys):
        out_dir = tmp_path / "db"
        with pytest.raises(KeyboardInterrupt):
            run_classification(2, str(out_dir), abort_after=2)
        manifest = out_dir / "manifest.json"
        manifest.write_text(manifest.read_text()[:-10])
        assert main(["classify", "-d", "2", "-o", str(out_dir), "--resume"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "manifest.json is not a manifest: " in err

    def test_resume_with_other_digest_exit_3(self, tmp_path, capsys):
        out_dir = str(tmp_path / "db")
        with pytest.raises(KeyboardInterrupt):
            run_classification(2, out_dir, digest="md5", abort_after=2)
        assert main(["classify", "-d", "2", "-o", out_dir, "--resume"]) == 3
        assert "digest md5 does not match sha256" in capsys.readouterr().err

    def test_digest_flag(self, tmp_path, capsys):
        out_dir = str(tmp_path / "dbmd5")
        assert main(["classify", "-d", "1", "-o", out_dir, "--digest", "md5"]) == 0
        line = (tmp_path / "dbmd5" / "dim_1.jsonl").read_text().strip()
        rec = json.loads(line)
        assert len(rec["hash"]) == 32

    def test_unknown_digest_exit_1_before_writing(self, tmp_path, capsys):
        out_dir = tmp_path / "db"
        for digest in ("nosuch", "shake_128"):
            with pytest.raises(SystemExit) as exc:
                main(["classify", "-d", "3", "-o", str(out_dir), "--digest", digest])
            assert exc.value.code == 1
            assert f"unsupported hash algorithm '{digest}'" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_worker_count_below_1_exit_1_before_writing(self, tmp_path, capsys, jobs):
        out_dir = tmp_path / "db"
        with pytest.raises(SystemExit) as exc:
            main(["classify", "-d", "3", "-o", str(out_dir), "-j", jobs])
        assert exc.value.code == 1
        assert f"error: argument -j/--jobs: worker count must be at least 1, got {jobs}" \
            in capsys.readouterr().err
        assert not out_dir.exists()


@pytest.mark.parametrize("text", ["0\n", "-1\n", "2 2 1/0 2\n"],
                         ids=["dimension-0", "dimension-minus-1", "zero-denominator"])
@pytest.mark.parametrize("command", [["delaunay"], ["dvcell"],
                                     ["classify", "-d", "2", "-o", "db", "--seed-form"]],
                         ids=["delaunay", "dvcell", "classify-seed-form"])
def test_malformed_form_file_exit_1(tmp_path, capsys, monkeypatch, command, text):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.form").write_text(text)
    with pytest.raises(SystemExit) as exc:
        main([*command, "bad.form"])
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith("error: bad form file: ")
    assert not (tmp_path / "db").exists()
