package repro.embed

import repro.SparkSpec
import repro.embed.EmbeddingsSpec.bits

class EmbeddingsSpec extends SparkSpec {

  private def corpus(n: Int = 300): Seq[Array[String]] = {
    val r = new scala.util.Random(5)
    (0 until n).map { _ =>
      // "apple" and "apfel" share contexts; "rock" lives elsewhere.
      if (r.nextBoolean()) Array("fruit", if (r.nextBoolean()) "apple" else "apfel", "sweet", "tree")
      else Array("stone", "rock", "hard", "mountain")
    }
  }

  private lazy val vectors: Map[String, Array[Float]] = {
    import spark.implicits._
    val df = spark.createDataset(corpus()).toDF("sentence")
    Embeddings.train(spark, df, Embeddings.Config(vectorSize = 16, window = 3, iterations = 3))
  }

  test("training covers the vocabulary (minCount=1)") {
    assert(Set("apple", "apfel", "rock", "fruit").subsetOf(vectors.keySet))
  }
  test("vectors have requested dimension") {
    assert(vectors("apple").length == 16)
  }
  test("co-occurring words are closer than unrelated ones") {
    val close = Embeddings.cosine(vectors("apple"), vectors("apfel"))
    val far = Embeddings.cosine(vectors("apple"), vectors("rock"))
    assert(close > far)
  }
  test("cosine of identical vectors is 1") {
    val v = Array(1f, 2f, 3f)
    assert(math.abs(Embeddings.cosine(v, v) - 1.0) < 1e-6)
  }
  test("cosine of orthogonal vectors is 0") {
    assert(Embeddings.cosine(Array(1f, 0f), Array(0f, 1f)) == 0.0)
  }
  test("cosine with zero vector is 0") {
    assert(Embeddings.cosine(Array(0f, 0f), Array(1f, 1f)) == 0.0)
  }
  test("meanVector averages present tokens") {
    val v = Map("a" -> Array(2f, 0f), "b" -> Array(0f, 2f))
    val m = Embeddings.meanVector(Seq("a", "b"), v, 2)
    assert(m.toSeq == Seq(1f, 1f))
  }
  test("meanVector skips OOV tokens") {
    val v = Map("a" -> Array(2f, 0f))
    assert(Embeddings.meanVector(Seq("a", "zz"), v, 2).toSeq == Seq(2f, 0f))
  }
  test("meanVector of all-OOV doc is zero") {
    assert(Embeddings.meanVector(Seq("x", "y"), Map.empty, 3).toSeq == Seq(0f, 0f, 0f))
  }
  test("training is deterministic in seed with one partition corpus") {
    import spark.implicits._
    val df = spark.createDataset(corpus(50)).toDF("sentence").coalesce(1)
    val cfg = Embeddings.Config(vectorSize = 8, window = 2, iterations = 1, seed = 3)
    val v1 = Embeddings.train(spark, df, cfg)
    val v2 = Embeddings.train(spark, df, cfg)
    assert(v1.keySet == v2.keySet)
    assert(bits(v1) == bits(v2))
    assert(bits(v1) == bits(Embeddings.train(corpus(50), cfg)))
    assert(bits(v1) != bits(Embeddings.train(corpus(50), cfg.copy(seed = 4))))
  }
  test("one SGNS step matches the update computed by hand") {
    // Vocabulary {a = 0, b = 1}: b's input vector predicts the centre a
    // (label 1) against the negative b (label 0); a negative equal to the
    // centre is skipped.
    val xa = Array(0.1f, 0.2f); val xb = Array(0.3f, -0.4f)
    val ya = Array(0.5f, 0.6f); val yb = Array(-0.7f, 0.8f)
    val w = new Embeddings.Weights(Array(xa.clone, xb.clone), Array(ya.clone, yb.clone))
    val alpha = 0.1
    w.step(input = 1, centre = 0, negatives = Array(0, 1), alpha = alpha.toFloat)

    def sigmoid(f: Double) = 1 / (1 + math.exp(-f))
    def dot(u: Array[Float], v: Array[Float]) = u.indices.map(i => u(i).toDouble * v(i)).sum
    val gA = (1 - sigmoid(dot(xb, ya))) * alpha // f = -0.09
    val gB = (0 - sigmoid(dot(xb, yb))) * alpha // f = -0.53
    val expected = Seq(
      xa(0).toDouble, xa(1).toDouble,
      xb(0) + gA * ya(0) + gB * yb(0), xb(1) + gA * ya(1) + gB * yb(1))
    val expectedOut = Seq(
      ya(0) + gA * xb(0), ya(1) + gA * xb(1),
      yb(0) + gB * xb(0), yb(1) + gB * xb(1))
    // The sigmoid table's step (12 / 1000) bounds its error by 0.003 · alpha per gradient.
    def near(got: Array[Float], want: Seq[Double]) =
      got.indices.forall(i => math.abs(got(i) - want(i)) < 4e-4)
    assert(near(w.syn0.flatten, expected), w.syn0.flatten.toSeq)
    assert(near(w.syn1.flatten, expectedOut), w.syn1.flatten.toSeq)
    assert(w.syn0(0).toSeq == xa.toSeq)
  }
  test("minCount = 2 drops singletons") {
    val v = Embeddings.train(Seq(Array("a", "b", "a"), Array("c", "b")),
      Embeddings.Config(vectorSize = 4, minCount = 2))
    assert(v.keySet == Set("a", "b"))
  }
  test("an empty corpus gives an empty map") {
    val cfg = Embeddings.Config(vectorSize = 4)
    assert(Embeddings.train(Seq.empty, cfg).isEmpty)
    assert(Embeddings.train(Seq(Array.empty[String]), cfg).isEmpty)
  }
}

object EmbeddingsSpec {
  /** Every vector's float bits, for exact comparison. */
  def bits(v: Map[String, Array[Float]]): Map[String, Seq[Int]] =
    v.map { case (k, a) => k -> a.toSeq.map(java.lang.Float.floatToRawIntBits) }
}
