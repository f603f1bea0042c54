"""The `ffmedian` command line, run in-process through `cli.main`."""
import hashlib
import json

from ffmedian import cli
from ffmedian.genomes import write_genome_file

from conftest import evolved_instance, identical_genomes

# SHA-256 of the segments TSV and of the reduced candidates.tsv written by
# `icf-seg` on evolved_instance(51, 120, 2, 0.1)
ICF_SEG_DIGESTS = [
    "cc5b09bb0cb747150e412b01cb6b1e46ce358b973cd9d56d1c0629c2101988cf",
    "82c0742cbea9b599916af64edca82dea8c131b972cde0e69796eec031c5d32ae",
]


def write_instance(tmp_path, names):
    genomes, sigma = identical_genomes(names)
    genome_file = tmp_path / "genomes.txt"
    similarity_file = tmp_path / "similarity.tsv"
    write_genome_file(genome_file, genomes)
    sigma.write(similarity_file)
    return ["-g", str(genome_file), "-s", str(similarity_file)]


def test_oracle_over_its_cap_exits_with_solver_code(tmp_path, capsys):
    # 6 gene triples and 8 telomere triples: over the oracle's cap of 12
    instance = write_instance(tmp_path, [f"x{k}" for k in range(6)])
    code = cli.main(["solve", "--engine", "oracle", *instance, "-o", str(tmp_path / "m.json")])
    assert code == cli.EXIT_SOLVER == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "oracle cap" in err
    assert "Traceback" not in err


def test_oracle_and_branch_and_bound_agree(tmp_path):
    # 2 gene triples and 8 telomere triples: within the oracle's cap
    instance = write_instance(tmp_path, ["a", "b"])
    objectives = []
    for engine in ("oracle", "bb"):
        out = tmp_path / f"{engine}.json"
        assert cli.main(["solve", "--engine", engine, *instance, "-o", str(out)]) == cli.EXIT_OK
        objectives.append(json.loads(out.read_text())["objective"])
    assert objectives[0] == objectives[1] > 0


def test_icf_seg_writes_recorded_segments_and_reduced_instance(tmp_path):
    genomes, sigma = evolved_instance(51, 120, 2, 0.1)
    genome_file = tmp_path / "genomes.txt"
    similarity_file = tmp_path / "similarity.tsv"
    write_genome_file(genome_file, genomes)
    sigma.write(similarity_file)
    tsv, reduced = tmp_path / "segments.tsv", tmp_path / "reduced"
    code = cli.main([
        "icf-seg", "-g", str(genome_file), "-s", str(similarity_file),
        "-o", str(tsv), "--emit-reduced", str(reduced),
    ])
    assert code == cli.EXIT_OK
    digests = [
        hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (tsv, reduced / "candidates.tsv")
    ]
    assert digests == ICF_SEG_DIGESTS
