package repro.walk

import java.util.SplittableRandom
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.Graph
import scala.collection.mutable.ArrayBuffer

/** Random-walk corpus generation (paper Algorithm 4).
  *
  * `n` walks of length `l` start from every graph node; each step moves to
  * a uniformly random neighbor, and an isolated node gives a length-1
  * walk. Every walk becomes one "sentence" whose words are node labels;
  * the sentences are the embedding trainer's corpus.
  *
  * DeepWalk-style (Perozzi et al., KDD'14), on the driver over the
  * in-memory [[Graph]]: walk `w` from node `v` draws from a
  * `SplittableRandom` seeded by `(seed, v, w)` alone, and the walks come
  * in walk-major order (every node's first walk, then every node's
  * second), as DeepWalk's passes over the node set.
  */
object RandomWalks {

  /** The `n · |V|` walks, walk-major; starts no Spark job. */
  def sentences(g: Graph, n: Int, l: Int, seed: Long = 13): Seq[Array[String]] = {
    val seedBits = new SplittableRandom(seed).nextLong()
    for (w <- 0 until n; v <- 0 until g.numNodes)
      yield walk(g, v, l, new SplittableRandom(seedBits ^ ((v.toLong << 32) | w)))
  }

  /** [[sentences]] as a DataFrame `(sentence: Array[String])`, in the same order. */
  def walks(spark: SparkSession, g: Graph, n: Int, l: Int, seed: Long = 13): DataFrame = {
    import spark.implicits._
    spark.createDataset(sentences(g, n, l, seed)).toDF("sentence")
  }

  /** Labels of one walk of at most `l` nodes from `start`. */
  private def walk(g: Graph, start: Int, l: Int, rnd: SplittableRandom): Array[String] = {
    val out = new ArrayBuffer[String](l)
    var cur = start
    out += g.labels(cur)
    while (out.length < l && g.degree(cur) > 0) {
      cur = g.neighbors(g.offsets(cur) + rnd.nextInt(g.degree(cur)))
      out += g.labels(cur)
    }
    out.toArray
  }
}
