package repro.data

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec
import repro.core.{Gamma, Merging, TextPrep}
import repro.embed.EmbeddingsSpec.bits

class WorldSpec extends AnyFunSuite {
  private val w = new World(42)

  test("world is deterministic in seed") {
    val w2 = new World(42)
    assert(w.genericCorpus(50) == w2.genericCorpus(50))
  }
  test("different seeds differ") {
    val w2 = new World(43)
    assert(w.genericCorpus(50) != w2.genericCorpus(50))
  }
  test("synonym pairs cover the declared range") {
    assert(w.synonymOf.size == w.nSyn)
    assert(w.synonymOf.keys.forall(_.startsWith("gen")))
  }
  test("generic corpus contains synonyms of base words") {
    val toks = w.genericCorpus(500).flatten.toSet
    assert(toks.exists(_.startsWith("syn")))
    assert(toks.exists(_.startsWith("gen")))
  }
  test("generic corpus tokens are stemmed") {
    val toks = w.genericCorpus(200).flatten
    assert(toks.forall(t => TextPrep.stem(t) == t))
  }
  test("countries and months appear in the generic corpus") {
    val toks = w.genericCorpus(2000).flatten.toSet
    assert(toks.exists(_.startsWith("norland")))
  }
  test("person abbreviation shape") {
    val p = Person("bruce", "willis")
    assert(p.abbrev == "b. willis" && p.full == "bruce willis")
  }
  test("directors/actors deterministic and distinct") {
    val d = w.directors(10)
    assert(d.distinct.size == 10)
    assert(w.directors(10) == d)
  }
  test("typo changes the word but is deterministic") {
    val t = w.typo("norland12", 3)
    assert(t != "norland12" && t == w.typo("norland12", 3))
  }
  test("typo on short words appends") {
    assert(w.typo("ab", 1) == "abx")
  }
  test("regionOf is total over countries") {
    w.countries.foreach(c => assert(w.regions.contains(w.regionOf(c))))
  }
  test("acronyms expand to three audit words") {
    w.acronyms.values.foreach(v => assert(v.split(" ").length == 3))
  }
}

class PretrainedSpec extends SparkSpec {
  test("pretrained model knows generic words but not domain entities") {
    val w = new World(42)
    val v = Pretrained.vectors(spark, w, dim = 24)
    assert(v.contains("gen1"))
    assert(v.keys.exists(_.startsWith("syn")))
    assert(!v.contains("dirl1")) // movie-domain surname: OOV
    assert(!v.contains("aud5")) // audit word: OOV
  }
  test("pretrained synonyms are closer than random word pairs") {
    val w = new World(42)
    val v = Pretrained.vectors(spark, w, dim = 24)
    val pairs = w.synonymPairsStemmed.filter(p => v.contains(p._1) && v.contains(p._2))
    assert(pairs.nonEmpty)
    val synSim = pairs.map(p => repro.embed.Embeddings.cosine(v(p._1), v(p._2)))
    val avgSyn = synSim.sum / synSim.size
    val r = new scala.util.Random(1)
    val vocab = v.keys.toIndexedSeq
    val rndSim = (0 until 200).map { _ =>
      repro.embed.Embeddings.cosine(
        v(vocab(r.nextInt(vocab.size))), v(vocab(r.nextInt(vocab.size))))
    }
    val avgRnd = rndSim.sum / rndSim.size
    assert(avgSyn > avgRnd)
  }
  test("pretrained training is bit-reproducible, and so is its gamma merge map") {
    val w = new World(42)
    val a = Pretrained.train(w, dim = 24)
    val b = Pretrained.train(w, dim = 24)
    assert(bits(a) == bits(b))
    val terms = w.genericCorpus().flatten.distinct
    def mergeMap(v: Map[String, Array[Float]]) =
      Merging.gammaMergeMap(terms, v, Gamma.calibrate(w.synonymPairsStemmed, v))
    assert(mergeMap(a).nonEmpty)
    assert(mergeMap(a) == mergeMap(b))
  }
  test("pretrained cache returns the same instance") {
    val w = new World(42)
    val a = Pretrained.vectors(spark, w, dim = 24)
    val b = Pretrained.vectors(spark, w, dim = 24)
    assert(a eq b)
  }
}
