package repro.matching

import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, IntegerType, StringType}
import repro.SparkSpec
import repro.embed.Embeddings
import scala.util.Random

class MatcherSpec extends SparkSpec {

  private def topK(q: Seq[(String, Array[Float])], c: Seq[(String, Array[Float])], k: Int) =
    Matcher.topK(spark, q, c, k)

  private val queries = Seq("q1" -> Array(1f, 0f), "q2" -> Array(0f, 1f))
  private val cands = Seq(
    "c1" -> Array(1f, 0f),      // = q1
    "c2" -> Array(0.7f, 0.7f),  // diagonal
    "c3" -> Array(0f, 1f))      // = q2

  test("topK ranks the identical vector first") {
    val r = topK(queries, cands, 3).collect()
      .map(x => (x.getString(0), x.getString(1), x.getInt(3)))
    assert(r.contains(("q1", "c1", 1)))
    assert(r.contains(("q2", "c3", 1)))
  }
  test("topK respects k") {
    assert(topK(queries, cands, 2).groupBy("queryId").count()
      .collect().forall(_.getLong(1) == 2))
  }
  test("topK similarity values are cosine") {
    val r = topK(queries, cands, 3)
      .where(col("queryId") === "q1" && col("candId") === "c2")
      .head().getDouble(2)
    assert(math.abs(r - math.cos(math.Pi / 4)) < 1e-6)
  }
  test("topK ranks densely from 1") {
    val r = topK(queries, cands, 3)
      .where(col("queryId") === "q1").collect().map(_.getInt(3)).sorted
    assert(r.toSeq == Seq(1, 2, 3))
  }
  test("topK deterministic tie-break by candidate id") {
    val c = Seq("cb" -> Array(1f, 0f), "ca" -> Array(1f, 0f))
    val r = topK(Seq("q" -> Array(1f, 0f)), c, 2).collect()
      .sortBy(_.getInt(3)).map(_.getString(1))
    assert(r.toSeq == Seq("ca", "cb"))
  }
  test("zero-vector query gets sim 0 but still ranks k candidates") {
    val r = topK(Seq("q" -> Array(0f, 0f)), cands, 2).collect()
    assert(r.length == 2 && r.forall(_.getDouble(2) == 0.0))
  }
  test("topK agrees with brute-force computation") {
    val r = topK(queries, cands, 3).collect()
      .map(x => ((x.getString(0), x.getString(1)), x.getDouble(2))).toMap
    def cos(a: Seq[Float], b: Seq[Float]): Double = {
      val dot = a.zip(b).map { case (x, y) => x * y }.sum
      val na = math.sqrt(a.map(x => x * x).sum); val nb = math.sqrt(b.map(x => x * x).sum)
      if (na == 0 || nb == 0) 0 else dot / (na * nb)
    }
    for ((q, qv) <- queries; (c, cv) <- cands)
      assert(math.abs(r((q, c)) - cos(qv.toSeq, cv.toSeq)) < 1e-6)

    // Seeded random vectors with planted exact ties: candidates that
    // repeat another candidate's vector, zero-vector candidates (all tie
    // at 0) and a zero-vector query. Whole rows, in output order, must
    // equal a full sort by (-sim, candId) of every pair's cosine.
    val rnd = new Random(11)
    def vec() = Array.fill(6)(rnd.nextGaussian().toFloat)
    val base = (0 until 30).map(i => f"c$i%02d" -> vec())
    val dupes = Seq(3, 17, 17, 25).zipWithIndex.map { case (j, i) => s"d$i" -> base(j)._2.clone() }
    val zeros = Seq("z0", "z1").map(_ -> new Array[Float](6))
    val cs = rnd.shuffle(base ++ dupes ++ zeros)
    val qs = (0 until 12).map(i => s"q$i" -> vec()) ++
      Seq("qd" -> base(17)._2.clone(), "qz" -> new Array[Float](6))
    def bruteForce(k: Int): Seq[(String, String, Double, Int)] = qs.flatMap { case (q, qv) =>
      cs.map { case (c, cv) => (c, Embeddings.cosine(qv, cv)) }
        .sortBy { case (c, s) => (-s, c) }.take(k)
        .zipWithIndex.map { case ((c, s), i) => (q, c, s, i + 1) }
    }
    for (k <- Seq(1, 5, cs.size + 3)) {
      val got = topK(qs, cs, k)
      assert(got.schema.map(f => f.name -> f.dataType) ==
        Seq("queryId" -> StringType, "candId" -> StringType, "sim" -> DoubleType, "rank" -> IntegerType))
      val rows = got.collect().map(x => (x.getString(0), x.getString(1), x.getDouble(2), x.getInt(3))).toSeq
      assert(rows == bruteForce(k), s"k=$k")
    }
    // The planted ties are there: the duplicate query scores its own
    // vector and both copies equally.
    val top = bruteForce(3).filter(_._1 == "qd")
    assert(top.map(_._2) == Seq("c17", "d1", "d2") && top.map(_._3).distinct.size == 1)
  }
}
